"""Command line entry point.

Subcommands mirror the scenario modes; anything beyond a trivial run
belongs in a scenario file, with flags acting as overrides.  Results go to
stdout as canonical JSON (or CSV for tabular payloads), diagnostics to
stderr.  Exit codes: 0 success, 1 usage or parse problem, 2 enumeration
guard exceeded, 3 verification failure.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from typing import Any

from .errors import FogGameError, GuardExceeded, ScenarioError
from .graph import GENERATOR_KINDS
from .scenario import MODES, run_record, sweep_record
from .serialize import emit_csv, emit_json

# Import-time objects live until exit; frozen, the GC and teardown skip them.
gc.freeze()

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_GUARD = 2
EXIT_VERIFICATION = 3


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; remap to the parse exit code."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="foggame", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for mode in MODES:
        p = sub.add_parser(mode, help=f"run a {mode} scenario")
        if mode != "verify":
            p.add_argument("scenario", nargs="?", help="scenario JSON file")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        if mode == "gen":
            p.add_argument("--kind", choices=GENERATOR_KINDS)
            p.add_argument("--n", type=int)
            p.add_argument("--p", type=float)
            p.add_argument("--graph-seed", type=int, dest="graph_seed")
            p.add_argument("--require-connected", action="store_true", default=None)
        if mode in ("cost", "dynamics", "nash", "poa", "bounds", "sweep"):
            p.add_argument("--alpha", type=float, help="override config.alpha")
            p.add_argument("--beta", type=float, help="override config.beta")
        if mode == "poa":
            p.add_argument("--n2", type=int, help="override the job count")
        if mode == "dynamics":
            p.add_argument("--seed", type=int, help="override the schedule seed")
            p.add_argument("--max-rounds", type=int, dest="max_rounds")
        if mode == "sweep":
            p.add_argument("--parameter", required=True, choices=("beta", "alpha", "n", "p"))
            p.add_argument("--values", required=True, help="comma-separated values")
    return parser


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ScenarioError("scenario file is nested too deeply to parse") from exc
    if not isinstance(data, dict):
        raise ScenarioError("scenario: expected a JSON object")
    return data


def _load_scenario(args: argparse.Namespace) -> dict:
    path = getattr(args, "scenario", None)
    data: dict[str, Any] = {} if path is None else _read_json(path)
    declared = data.get("mode")
    if declared is not None and declared != args.command:
        raise ScenarioError(
            f"scenario declares mode {declared!r} but was run as {args.command!r}"
        )
    data["mode"] = args.command
    return data


def _apply_overrides(data: dict, args: argparse.Namespace) -> None:
    for field in ("alpha", "beta"):
        value = getattr(args, field, None)
        if value is not None:
            data.setdefault("config", {})[field] = value
    if getattr(args, "n2", None) is not None:
        data["n2"] = args.n2
    if args.command == "gen":
        graph = data.setdefault("graph", {})
        if args.kind is not None:
            graph["kind"] = args.kind
        if args.n is not None:
            graph["n"] = args.n
        if args.p is not None:
            graph["p"] = args.p
        if args.graph_seed is not None:
            graph["seed"] = args.graph_seed
        if args.require_connected is not None:
            graph["require_connected"] = True
    if args.command == "dynamics":
        options = data.setdefault("options", {})
        if args.seed is not None:
            options["seed"] = args.seed
        if args.max_rounds is not None:
            options["max_rounds"] = args.max_rounds


def _parse_values(raw: str) -> list[float]:
    try:
        return [float(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ScenarioError(f"--values must be comma-separated numbers: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            if args.scenario is None:
                raise ScenarioError("sweep: needs a template scenario file")
            template = _read_json(args.scenario)
            _apply_overrides(template, args)
            record = sweep_record(template, args.parameter, _parse_values(args.values))
        else:
            data = _load_scenario(args)
            _apply_overrides(data, args)
            record = run_record(data)
        payload = record["payload"]
        if args.format == "csv":
            sys.stdout.write(emit_csv(args.command, payload))
        else:
            sys.stdout.write(emit_json(record))
        if args.command == "verify" and not payload["all_passed"]:
            failed = [c["name"] for c in payload["checks"] if not c["passed"]]
            print(f"verification failed: {', '.join(failed)}", file=sys.stderr)
            return EXIT_VERIFICATION
        return EXIT_OK
    except GuardExceeded as exc:
        print(f"foggame: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except (FogGameError, ValueError) as exc:
        print(f"foggame: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
