"""Command line entry point.

Subcommands mirror the scenario modes; anything beyond a trivial run
belongs in a scenario file, with flags acting as overrides.  Results go to
stdout as canonical JSON, written as it is encoded (or CSV for tabular
payloads), diagnostics to stderr.  Exit codes: 0 success, 1 usage or
parse problem, 2 enumeration guard exceeded, 3 verification failure.
"""

from __future__ import annotations

import gc
import json
import sys
from types import SimpleNamespace
from typing import Any

from .errors import FogGameError, GuardExceeded, ScenarioError
from .graph import GENERATOR_KINDS
from .parsing import writable_section
from .scenario import MODES, _SWEEP_PARAMETERS, run_record
from .serialize import emit_json

# Import-time objects live until exit; frozen, the GC and teardown skip them.
gc.freeze()

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_GUARD = 2
EXIT_VERIFICATION = 3


# Every flag: (modes that take it, value type or None for a switch, choices,
# required, the scenario field it overrides).  The plain reader, the argparse
# parser behind it and the overrides read this table.
_CONFIGURED = ("cost", "dynamics", "nash", "poa", "bounds", "sweep")
_FLAGS = {
    "--format": (MODES, str, ("json", "csv"), False, None),
    "--kind": (("gen",), str, GENERATOR_KINDS, False, "graph.kind"),
    "--n": (("gen",), int, None, False, "graph.n"),
    "--p": (("gen",), float, None, False, "graph.p"),
    "--graph-seed": (("gen",), int, None, False, "graph.seed"),
    "--require-connected": (("gen",), None, None, False, "graph.require_connected"),
    "--alpha": (_CONFIGURED, float, None, False, "config.alpha"),
    "--beta": (_CONFIGURED, float, None, False, "config.beta"),
    "--n2": (("poa",), int, None, False, "n2"),
    "--seed": (("dynamics",), int, None, False, "options.seed"),
    "--max-rounds": (("dynamics",), int, None, False, "options.max_rounds"),
    "--parameter": (("sweep",), str, _SWEEP_PARAMETERS, True, None),
    "--values": (("sweep",), str, None, True, None),
}


def _dest(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_")


def _parse_args(argv: list[str]) -> SimpleNamespace:
    """Read `foggame <mode> [scenario] [options]` from _FLAGS.

    A plain command line is read without argparse: a mode, at most one
    scenario file (none for verify), and the mode's flags spelled out, as
    `--flag value` or `--flag=value`, each value valid for its flag and not
    starting with "-".  argparse reads every other one: prefixes, -h, "--",
    negative values and every usage error.
    """
    return _read_plain(argv) or _argparse(argv)


def _read_plain(argv: list[str]) -> SimpleNamespace | None:
    mode, *words = argv or [""]
    if mode not in MODES:
        return None
    flags = {flag: spec for flag, spec in _FLAGS.items() if mode in spec[0]}
    values = dict.fromkeys(flags) | {"--format": "json"}
    if mode != "verify":
        values["scenario"] = None
    words = iter(words)
    for word in words:
        flag, eq, value = word.partition("=")
        if flag not in flags:  # the scenario file: one at most, none for verify
            if word[:1] == "-" or values.get("scenario", word) is not None:
                return None
            values["scenario"] = word
        elif flags[flag][1] is None:  # a switch
            if eq:
                return None
            values[flag] = True
        else:
            kind, choices = flags[flag][1:3]
            raw = value if eq else next(words, "-")
            try:
                values[flag] = value = kind(raw)
            except ValueError:
                return None
            if raw[:1] == "-" or choices and value not in choices:
                return None
    if any(spec[3] and values[flag] is None for flag, spec in flags.items()):
        return None
    return SimpleNamespace(command=mode, **{_dest(key): value for key, value in values.items()})


def _argparse(argv: list[str]) -> SimpleNamespace:
    import argparse  # loaded only for the command lines _read_plain declines

    class Parser(argparse.ArgumentParser):
        def error(self, message: str):  # exit EXIT_USAGE, not argparse's 2
            self.print_usage(sys.stderr)
            print(f"{self.prog}: error: {message}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)

    parser = Parser(prog="foggame", description=__doc__)
    modes = parser.add_subparsers(dest="command", required=True)
    for mode in MODES:
        sub = modes.add_parser(mode, help=f"run a {mode} scenario")
        if mode != "verify":
            sub.add_argument("scenario", nargs="?", help="scenario JSON file")
        for flag, (takers, kind, choices, required, _) in _FLAGS.items():
            if mode in takers:
                how = {"action": "store_true"} if kind is None else {"type": kind, "choices": choices}
                default = "json" if flag == "--format" else None
                sub.add_argument(flag, required=required, default=default, **how)
    return SimpleNamespace(**vars(parser.parse_args(argv)))


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


def _load_scenario(args: SimpleNamespace) -> dict:
    path = getattr(args, "scenario", None)
    data: dict[str, Any] = {} if path is None else _read_json(path)
    declared = data.get("mode")
    if declared is not None and declared != args.command:
        raise ScenarioError(
            f"scenario declares mode {declared!r} but was run as {args.command!r}"
        )
    data["mode"] = args.command
    return data


def _apply_overrides(data: dict, args: SimpleNamespace) -> None:
    # A gen run always echoes a graph section, a dynamics run an options one.
    echoed = {"gen": "graph", "dynamics": "options"}.get(args.command)
    if echoed is not None:
        data.setdefault(echoed, {})
    for flag, spec in _FLAGS.items():
        value = getattr(args, _dest(flag), None)
        if spec[4] is not None and value is not None:
            section, _, key = spec[4].rpartition(".")
            (writable_section(data, section) if section else data)[key] = value


def _parse_values(raw: str) -> list[float]:
    try:
        return [float(part) for part in raw.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise ScenarioError(f"--values must be comma-separated numbers: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        if args.command == "sweep":
            if args.scenario is None:
                raise ScenarioError("sweep: needs a template scenario file")
            from .sweep import sweep_record  # loaded for its command only

            template = _read_json(args.scenario)
            _apply_overrides(template, args)
            record = sweep_record(template, args.parameter, _parse_values(args.values))
        else:
            data = _load_scenario(args)
            _apply_overrides(data, args)
            record = run_record(data)
        payload = record["payload"]
        if args.format == "csv":
            from .tabular import emit_csv  # loaded for its format only

            sys.stdout.write(emit_csv(args.command, payload))
        else:
            emit_json(record, sys.stdout)
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
