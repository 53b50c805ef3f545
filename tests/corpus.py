"""The outcome corpus: a deterministic grid of joint level-2 scenarios and one digest each.

Each scenario is one run on one fog graph, job count and configuration:

- the `poa` and `bounds` modes, run in process as `foggame <mode> <file>`
  runs them (scenario.run_record, then serialize.emit_json);
- social_optimum_level2, enumerate_nash_level2 and empirical_poa, called
  directly on the graph the scenario's graph section builds.

The grid is every fog graph in KINDS with n1 = 0-5 (1-5 for a generator,
which needs a vertex) and n2 = 0-3, both job cost types, both transit
policies and every beta in BETAS, but for the SLOW shape; `bounds` takes
n2 = n1 instead, the only counts its formulas accept.  The larger shapes
in EXTRA follow, which the joint guard refuses.

A scenario's outcome is (exit class, stdout, error message): "ok", the
printed record with duration_seconds masked (a mode) or the repr of the
result (an analysis), and ""; or the exception's class name, which fixes
the CLI's exit code, "" and its message.  PINS holds a SHA-256 prefix of
each outcome's JSON, one scenario a line.

`python tests/corpus.py` rewrites PINS from the code as it stands and
prints the name of every scenario whose outcome changed, appeared or went
away.  A change that moves a pinned outcome lists those names, with the
reason, in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import sys
from pathlib import Path
from typing import Iterator

PINS = Path(__file__).with_name("corpus_pins.txt")
KINDS = ("inline", "path", "cycle", "star", "complete", "edgeless")
# The inline graph: a paw (a triangle with a pendant), and vertex 4
# isolated at n1 = 5, cut to the first n1 vertices.
INLINE = ((0, 1), (0, 2), (1, 2), (2, 3))
COSTS = ("type1", "type2")
TRANSITS = ("fog_only", "full_combined")
BETAS = (0.5, 1.5, 2.5, 3.5)
ANALYSES = ("social_optimum_level2", "enumerate_nash_level2", "empirical_poa")
# Past the grid, under TYPE_II and full_combined transit: path 6 has 28
# lend classes, so the walk refuses 6x4 and 6x6 on them; path 16x16 fits
# the counts' one class and is refused on its second.
EXTRA = (("path", 6, 4), ("path", 6, 6), ("path", 16, 16))
EXTRA_BETAS = (0.5, 1.5)
# The grid's one slow walk, 19,683 class vectors, runs at beta = 1.5 only.
SLOW = ("edgeless", 5, 3, "full_combined")


def graph_section(kind: str, n1: int) -> dict:
    """The scenario graph section of one fog graph of the grid."""
    if kind == "inline":
        return {"n": n1, "edges": [list(e) for e in INLINE if max(e) < n1]}
    if kind == "edgeless":
        return {"n": n1, "edges": []}
    return {"kind": kind, "n": n1}


def shapes() -> Iterator[tuple[str, str, int, int, str, str, float]]:
    """(run, kind, n1, n2, cost type, transit, beta) of every scenario, grid first."""
    configs = list(itertools.product(COSTS, TRANSITS, BETAS))
    for kind, n1 in itertools.product(KINDS, range(6)):
        if n1 == 0 and kind not in ("inline", "edgeless"):
            continue
        for config in configs:
            yield ("bounds", kind, n1, n1, *config)
        for n2, config in itertools.product(range(4), configs):
            if (kind, n1, n2, config[1]) == SLOW and config[2] != 1.5:
                continue
            for run in ("poa", *ANALYSES):
                yield (run, kind, n1, n2, *config)
    for (kind, n1, n2), beta in itertools.product(EXTRA, EXTRA_BETAS):
        for run in ("poa", "bounds", *ANALYSES):
            yield run, kind, n1, n2, "type2", "full_combined", beta


def scenarios() -> Iterator[tuple[str, str, dict]]:
    """(name, run, scenario data without its mode) of every scenario."""
    for run, kind, n1, n2, cost, transit, beta in shapes():
        data = {
            "graph": graph_section(kind, n1),
            "n2": n2,
            "config": {"beta": beta, "job_cost_type": cost, "transit": transit},
        }
        yield f"{run} {kind} {n1}x{n2} {cost} {transit} {beta}", run, data


def outcome(run: str, data: dict) -> tuple:
    """(exit class, stdout, error message) of one scenario."""
    from foggame import equilibrium
    from foggame.errors import FogGameError
    from foggame.parsing import _graph_builder, _parse_config
    from foggame.scenario import run_record
    from foggame.serialize import emit_json

    try:
        if run in ANALYSES:
            g1 = _graph_builder(data["graph"])[1]()
            result = getattr(equilibrium, run)(g1, data["n2"], _parse_config(data["config"]))
            return "ok", repr(result), ""
        record = run_record({"mode": run, **data})
    except (FogGameError, ValueError) as exc:
        return type(exc).__name__, "", str(exc)
    record["duration_seconds"] = "_"
    out = io.StringIO()
    emit_json(record, out)
    return "ok", out.getvalue(), ""


def digest(result: tuple) -> str:
    return hashlib.sha256(json.dumps(result).encode()).hexdigest()[:12]


def outcomes() -> dict[str, str]:
    """The digest of every scenario's outcome, by name."""
    return {name: digest(outcome(run, data)) for name, run, data in scenarios()}


def read_pins() -> dict[str, str]:
    lines = PINS.read_text(encoding="utf-8").splitlines()
    return dict(line.rsplit(" ", 1) for line in lines)


def changed(old: dict[str, str], new: dict[str, str]) -> list[str]:
    """Names whose digest differs between old and new, or that only one holds."""
    return sorted(name for name in old.keys() | new.keys() if old.get(name) != new.get(name))


def main() -> int:
    old = read_pins() if PINS.exists() else {}
    new = outcomes()
    PINS.write_text("".join(f"{name} {pin}\n" for name, pin in new.items()), encoding="utf-8")
    for name in changed(old, new):
        print(name)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    raise SystemExit(main())
