"""Command line entry point.

Subcommands mirror the scenario modes; anything beyond a trivial run
belongs in a scenario file, with flags acting as overrides.  Results go to
stdout as canonical JSON (or CSV for tabular payloads), diagnostics to
stderr.  Exit codes: 0 success, 1 usage or parse problem, 2 enumeration
guard exceeded, 3 verification failure.
"""

from __future__ import annotations

import gc
import json
import re
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
# required, the scenario field it overrides).  Parsing, the usage line and
# the overrides read this table; every parser also knows -h/--help.
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
_HELP = ("-h", "--help")


def _dest(flag: str) -> str:
    return flag.lstrip("-").replace("-", "_")


def _usage(mode: str | None) -> str:
    words = ["usage: foggame", *([mode] if mode else []), "[-h]"]
    for flag, (modes, kind, choices, required, _) in _FLAGS.items():
        if mode in modes:
            metavar = "{%s}" % ",".join(choices) if choices else _dest(flag).upper()
            word = flag if kind is None else f"{flag} {metavar}"
            words.append(word if required else f"[{word}]")
    if mode != "verify":
        words.append("[scenario]" if mode else "{%s} ..." % ",".join(MODES))
    return " ".join(words)


def _fail(mode: str | None, message: str, flag: str | None = None):
    if flag is not None:
        message = f"argument {'-h/--help' if flag in _HELP else flag}: {message}"
    prog = f"foggame {mode}" if mode else "foggame"
    print(_usage(mode), f"{prog}: error: {message}", sep="\n", file=sys.stderr)
    raise SystemExit(EXIT_USAGE)


def _choose(mode: str | None, flag: str, value: Any, choices: tuple | None) -> None:
    if choices and value not in choices:
        listed = ", ".join(map(repr, choices))
        _fail(mode, f"invalid choice: {value!r} (choose from {listed})", flag)


def _option(token: str, mode: str | None) -> tuple | None:
    """argparse's reading of a token before "--" (mode None: the top level).

    (flag, attached value) for a flag or a unique prefix of one, (None,
    token) for an unknown option, None for a positional.
    """
    known = [*_HELP, *(flag for flag, spec in _FLAGS.items() if mode in spec[0])]
    if token in known:
        return token, None
    name, eq, value = token.partition("=")
    if eq and name in known:
        return name, value
    if token[:1] != "-" or token in ("-", "--"):
        return None
    if token[1] == "-":
        found = [(flag, value if eq else None) for flag in known if flag.startswith(name)]
    else:  # -h is the only short flag, and -hX is -h with X attached
        found = [("-h", token[2:])] if token[1] == "h" else []
    if len(found) > 1:
        _fail(mode, f"ambiguous option: {token} could match {', '.join(f for f, _ in found)}")
    if found:
        return found[0]
    return None if " " in token or re.match(r"^-\d+$|^-\d*\.\d+$", token) else (None, token)


def _parse_args(argv: list[str]) -> SimpleNamespace:
    """Read `foggame <mode> [scenario] [options]` from _FLAGS, as argparse does.

    A usage error prints the usage line and argparse's error line, then
    exits with EXIT_USAGE; -h prints the usage and exits with EXIT_OK.
    """
    mode, values, extras, at = None, {}, [], None
    items, i, cut = [_option(token, None) for token in argv], 0, len(argv)
    while i < len(argv):
        token, option = argv[i], items[i]
        i += 1
        if option is None and mode is None:  # the mode; a "--" that ends argv is none
            if token == "--" and i == len(argv):
                break
            _choose(None, "command", token, MODES)
            mode = token
            values = {} if mode == "verify" else {"scenario": None}
            values.update((flag, None) for flag, spec in _FLAGS.items() if mode in spec[0])
            values["--format"] = "json"
            cut = argv.index("--", i) if "--" in argv[i:] else cut
            items[i:] = [_option(t, mode) for t in argv[i:cut]] + [None] * (len(argv) - cut)
        elif option is None:  # a positional, or the "--" at cut
            # argparse drops that "--" while the scenario is unread or just read
            if mode == "verify" or at is not None and (i - 1 != cut or at != cut - 1):
                extras.append(token)
            elif i - 1 != cut:
                values["scenario"], at = token, i - 1
        elif option[0] is None:
            extras.append(token)
        else:
            flag, value = option
            kind, choices = _FLAGS[flag][1:3] if flag in _FLAGS else (None, None)
            if flag == "-h" and value:  # -hh is -h twice
                value = value.lstrip("h") or None
            if kind is None and value is not None:
                _fail(mode, f"ignored explicit argument {value!r}", flag)
            if flag in _HELP:
                about = (__doc__ or "") if mode is None else f"Run a {mode} scenario."
                print(_usage(mode), "", about, sep="\n")
                raise SystemExit(EXIT_OK)
            if kind is not None and value is None:
                if i >= cut or items[i] is not None:
                    _fail(mode, "expected one argument", flag)
                value, i = argv[i], i + 1
            try:
                values[flag] = value = True if kind is None else kind(value)
            except ValueError:
                _fail(mode, f"invalid {kind.__name__} value: {value!r}", flag)
            _choose(mode, flag, value, choices)
    if mode is None:
        _fail(None, "the following arguments are required: command")
    missing = [f for f, spec in _FLAGS.items() if mode in spec[0] and spec[3] and values[f] is None]
    if missing:
        _fail(mode, f"the following arguments are required: {', '.join(missing)}")
    if extras:
        _fail(None, f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(command=mode, **{_dest(flag): value for flag, value in values.items()})


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
