"""The outcome corpus: a deterministic grid of scenarios and one digest each.

Each scenario is one run on one fog graph, job count and configuration:

- a mode (`poa`, `bounds`, `cost`, `nash`, `dynamics` or `gen`), run in
  process as `foggame <mode> <file>` runs it (scenario.run_record, then
  serialize.emit_json);
- social_optimum_level2, enumerate_nash_level2 and empirical_poa, called
  directly on the graph the scenario's graph section builds.

The joint grid (shapes) is every fog graph in KINDS with n1 = 0-5 (1-5
for a generator, which needs a vertex) and n2 = 0-3, both job cost
types, both transit policies and every beta in BETAS, but for the SLOW
shape; `bounds` takes n2 = n1 instead, the only counts its formulas
accept.  The larger shapes in EXTRA follow, which the joint guard
refuses.

The state grid (state_scenarios) runs `cost`, `nash` and `dynamics` on
every source in SOURCES, the fog graphs and profile mode, with n1 = 0-5
and n2 = 0-3, the jobs bare or drawn from a fixed seed; every
configuration of the joint grid; every scope the source admits; and, for
`dynamics`, both schedules, both oracles and max_rounds 0, 1 and the
default.  `gen` runs on the generator kinds, and REFUSALS follow: one
scenario per refusal path of these modes.

The third slice follows: `sweep` runs (sweep.sweep_record) of every
parameter over the poa and cost templates of SWEEP_TEMPLATES, plus the
sweep refusals; runs printed with `--format csv` (tabular.emit_csv): cost
on the state grid, bounds, every sweep, and the modes without a csv form;
and (pool_scenarios) nash and both oracles' dynamics with 4-8 jobs that
share a pool of three drawn strategies, under both transits.

A scenario's outcome is (exit class, stdout, error message): "ok", the
printed record with every duration_seconds masked (a mode), the csv text
(a csv run) or the repr of the result (an analysis), and ""; or the
exception's class name, which fixes the CLI's exit code, "" and its
message.  PINS holds a SHA-256 prefix of each outcome's JSON, one
scenario a line.

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
import random
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


def _config(cost: str, transit: str, beta: float) -> dict:
    return {"beta": beta, "job_cost_type": cost, "transit": transit}


# The state grid's fog graphs: inline, two generators and edgeless, then
# profile mode, whose fog graph the drawn level-1 strategies buy.
SOURCES = ("inline", "path", "erdos_renyi", "edgeless", "profile")
SCHEDULES = ("round_robin", "random_permutation")
ORACLES = ("exact", "greedy")
MODES = ("nash", "dynamics")  # the modes with a scope
# (n2, jobs) of the state grid: bare jobs at n2 = 0 and 2, drawn ones at 1-3.
JOBS = ((0, "bare"), (1, "drawn"), (2, "bare"), (2, "drawn"), (3, "drawn"))
# The state grid's configurations: cost runs on every cost type and transit
# at the betas of COST_BETAS, dynamics' level-2 scope at the others, nash's
# level-2 scope at all of BETAS.  The level-1 and both scopes run on
# SCOPE_CONFIGS, and dynamics varies its options on the first of them.
COST_BETAS = (0.5, 2.5)
SCOPE_CONFIGS = (("type2", "full_combined", 1.5), ("type1", "fog_only", 2.5))


def _subset(rng: random.Random, vertices: list[int]) -> list[int]:
    return sorted(v for v in vertices if rng.random() < 0.4)


def states() -> Iterator[tuple[str, int, int, str, dict, dict]]:
    """(source, n1, n2, jobs, state sections, options) of every state of the state grid.

    jobs is "bare" (n2 empty strategies) or "drawn" (level2_strategies,
    as are profile mode's level1_strategies, drawn from one seeded
    generator per state); every state allows unequal counts.
    """
    for source, n1 in itertools.product(SOURCES, range(6)):
        if n1 == 0 and source in ("path", "erdos_renyi"):
            continue
        for n2, jobs in JOBS:
            rng = random.Random(100 * n1 + 10 * n2 + SOURCES.index(source))
            sections: dict = {"allow_unequal": True}
            options: dict = {}
            if source == "profile":
                options["level1_strategies"] = [
                    _subset(rng, [v for v in range(n1) if v != i]) for i in range(n1)
                ]
            elif source == "erdos_renyi":
                sections["graph"] = {"kind": source, "n": n1, "p": 0.5, "seed": n1}
            else:
                sections["graph"] = graph_section(source, n1)
            if jobs == "drawn":
                options["level2_strategies"] = [_subset(rng, list(range(n1))) for _ in range(n2)]
            else:
                sections["n2"] = n2
            yield source, n1, n2, jobs, sections, options


def _dynamics_options() -> Iterator[dict]:
    """Both schedules with both oracles, then max_rounds 0 and 1 (the default is 100)."""
    for schedule, oracle in itertools.product(SCHEDULES, ORACLES):
        yield {"schedule": schedule, "oracle": oracle}
    for rounds in (0, 1):
        yield {"max_rounds": rounds}


def state_scenarios() -> Iterator[tuple[str, str, dict]]:
    """(name, run, scenario data) of the state grid's cost, nash and dynamics runs."""
    configs = list(itertools.product(COSTS, TRANSITS, BETAS))
    priced = [c for c in configs if c[2] in COST_BETAS]
    moved = [c for c in configs if c[2] not in COST_BETAS]
    for source, n1, n2, jobs, sections, options in states():
        scopes = ("level1", "both") if source == "profile" else ()
        runs = [("cost", {}, c) for c in priced]
        runs += [("nash", {"scope": "level2"}, c) for c in configs]
        runs += [("dynamics", {"scope": "level2"}, c) for c in moved]
        runs += [(mode, {"scope": s}, c) for mode in MODES for s in scopes for c in SCOPE_CONFIGS]
        runs += [
            ("dynamics", {"scope": s, **extra}, SCOPE_CONFIGS[0])
            for s in ("level2", *scopes)
            for extra in _dynamics_options()
        ]
        for mode, extra, config in runs:
            data = {**sections, "config": _config(*config), "options": {**options, **extra}}
            flags = " ".join(f"{k}={v}" for k, v in sorted(extra.items()))
            name = f"{mode} {source} {n1}x{n2} {jobs} {' '.join(map(str, config))} {flags}"
            yield name.rstrip(), mode, data


def gen_scenarios() -> Iterator[tuple[str, str, dict]]:
    """(name, "gen", scenario data) of every generator run."""
    for kind, n in itertools.product(("path", "cycle", "star", "complete"), range(1, 6)):
        yield f"gen {kind} {n}", "gen", {"graph": {"kind": kind, "n": n}}
    for n, p, seed, connected in itertools.product(range(1, 6), (0.3, 0.7), (1, 2), (False, True)):
        graph = {"kind": "erdos_renyi", "n": n, "p": p, "seed": seed}
        graph["require_connected"] = connected
        yield f"gen erdos_renyi {n} {p} {seed} {connected}", "gen", {"graph": graph}
    for n in range(6):
        yield f"gen inline {n}", "gen", {"graph": graph_section("inline", n)}


def _on_path(n: int, n2: int | None = None, **options) -> dict:
    """Scenario data on the generated path of n fog vertices, with n2 bare jobs if given."""
    data: dict = {"graph": {"kind": "path", "n": n}, "allow_unequal": True, "options": options}
    return data if n2 is None else {**data, "n2": n2}


# One scenario per refusal path of the state modes and gen: (name, mode, data).
REFUSALS = (
    ("exact guard", "nash", _on_path(21, 1)),
    ("exact guard", "dynamics", _on_path(21, 1)),
    ("job count", "nash", _on_path(3, 2**24 + 1)),
    ("job count", "dynamics", _on_path(3, 2**24 + 1)),
    ("cost guard", "cost", _on_path(3, 5000)),
    ("generation guard", "gen", {"graph": {"kind": "complete", "n": 1449}}),
    (
        "no connected draw",
        "gen",
        {"graph": {"kind": "erdos_renyi", "n": 3, "p": 0, "seed": 1, "require_connected": True}},
    ),
    ("bad schedule", "dynamics", _on_path(3, 3, schedule="bogus")),
    ("bad oracle", "dynamics", _on_path(3, 3, oracle="bogus")),
    ("level1 scope on a graph", "nash", _on_path(3, 3, scope="level1")),
    ("level1 scope on a graph", "dynamics", _on_path(3, 3, scope="both")),
    ("job member out of range", "cost", _on_path(3, level2_strategies=[[0], [3], [1]])),
    (
        "fog member out of range",
        "nash",
        {"n2": 2, "options": {"level1_strategies": [[1], [2]], "scope": "level1"}},
    ),
)


# The third slice: sweeps of a poa and a cost template, csv output, and
# nash and dynamics with 4-8 jobs that share three drawn strategies.
SWEEP_TEMPLATES = (
    ("poa path", {"mode": "poa", "graph": {"kind": "path", "n": 3}, "n2": 2}),
    (
        "poa erdos_renyi",
        {
            "mode": "poa",
            "graph": {"kind": "erdos_renyi", "n": 4, "p": 0.5, "seed": 1},
            "n2": 2,
            "config": {"transit": "fog_only"},
        },
    ),
    (
        "cost cycle",
        {
            "mode": "cost",
            "graph": {"kind": "cycle", "n": 4},
            "n2": 4,
            "allow_unequal": True,
            "config": {"beta": 2.5},
        },
    ),
    (
        "cost erdos_renyi",
        {
            "mode": "cost",
            "graph": {"kind": "erdos_renyi", "n": 4, "p": 0.4, "seed": 2},
            "options": {"level2_strategies": [[0], [1, 3], [2], [0, 2]]},
            "config": {"job_cost_type": "type1"},
        },
    ),
    (
        "cost profile",
        {
            "mode": "cost",
            "options": {"level1_strategies": [[1], [2], [0]], "level2_strategies": [[0], [1], [2]]},
        },
    ),
)
SWEEPS = (
    ("beta", [0.5, 1.5, 2.5, 3.5]),
    ("alpha", [0.5, 2.0]),
    ("n", [2, 3, 4]),
    ("n", [2.5]),
    ("p", [0.0, 0.5, 1.0]),
    ("beta", []),
    ("gamma", [1.0]),
)
# nash and dynamics on shared strategies: per fog graph, per job count, a
# pool of three non-empty strategies drawn from a fixed seed, each job
# holding one of them.
POOL_SOURCES = ("path", "cycle", "profile")
POOL_N2 = range(4, 9)
POOL_BETAS = (0.5, 2.5)


def sweep_scenarios() -> Iterator[tuple[str, str, dict]]:
    """(name, "sweep", sweep arguments) of every sweep, as `foggame sweep` passes them."""
    for (label, template), (parameter, values) in itertools.product(SWEEP_TEMPLATES, SWEEPS):
        data = {"template": template, "parameter": parameter, "values": values}
        yield f"sweep {label} {parameter} {values}", "sweep", data


def csv_scenarios() -> Iterator[tuple[str, str, dict]]:
    """(name, "<mode> csv", data) of the runs printed with `--format csv`.

    cost on every state of the state grid, bounds on the joint grid's
    graphs, every sweep, and one run of each mode without a csv form.
    """
    for source, n1, n2, jobs, sections, options in states():
        for config in (("type1", "full_combined", 0.5), ("type2", "fog_only", 2.5)):
            data = {**sections, "config": _config(*config), "options": options}
            name = f"csv cost {source} {n1}x{n2} {jobs} {' '.join(map(str, config))}"
            yield name, "cost csv", data
    for kind, n1, beta in itertools.product(KINDS, range(1, 5), (0.5, 3.5)):
        data = {"graph": graph_section(kind, n1), "n2": n1, "config": {"beta": beta}}
        yield f"csv bounds {kind} {n1}x{n1} {beta}", "bounds csv", data
    for name, run, data in sweep_scenarios():
        yield f"csv {name}", f"{run} csv", data
    path = {"graph": {"kind": "path", "n": 3}, "n2": 3}
    for mode in ("poa", "nash", "dynamics", "gen"):
        yield f"csv {mode}", f"{mode} csv", path if mode != "gen" else {"graph": path["graph"]}


def pool_scenarios() -> Iterator[tuple[str, str, dict]]:
    """(name, run, data) of nash and both oracles' dynamics on jobs that share strategies."""
    for source, n1, n2 in itertools.product(POOL_SOURCES, (4, 6), POOL_N2):
        rng = random.Random(1000 * n1 + n2 + 7 * POOL_SOURCES.index(source))
        pool = [_subset(rng, list(range(n1))) or [rng.randrange(n1)] for _ in range(3)]
        options: dict = {"level2_strategies": [rng.choice(pool) for _ in range(n2)]}
        sections: dict = {"allow_unequal": True}
        if source == "profile":
            options["level1_strategies"] = [[(i + 1) % n1] for i in range(n1)]
        else:
            sections["graph"] = {"kind": source, "n": n1}
        runs = [("nash", {})] + [("dynamics", {"oracle": o}) for o in ORACLES]
        for (mode, extra), transit, beta in itertools.product(runs, TRANSITS, POOL_BETAS):
            config = ("type2", transit, beta)
            data = {**sections, "config": _config(*config), "options": {**options, **extra}}
            flags = " ".join(f"{k}={v}" for k, v in extra.items())
            name = f"{mode} pool {source} {n1}x{n2} {' '.join(map(str, config))} {flags}"
            yield name.rstrip(), mode, data


def scenarios() -> Iterator[tuple[str, str, dict]]:
    """(name, run, scenario data without its mode) of every scenario."""
    for run, kind, n1, n2, cost, transit, beta in shapes():
        data = {"graph": graph_section(kind, n1), "n2": n2, "config": _config(cost, transit, beta)}
        yield f"{run} {kind} {n1}x{n2} {cost} {transit} {beta}", run, data
    yield from state_scenarios()
    yield from gen_scenarios()
    for name, run, data in REFUSALS:
        yield f"{run} refused: {name}", run, data
    yield from sweep_scenarios()
    yield from csv_scenarios()
    yield from pool_scenarios()


def _masked(value):
    """value with every duration_seconds, a sweep's nested ones too, read as "_"."""
    if isinstance(value, dict):
        return {k: "_" if k == "duration_seconds" else _masked(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_masked(v) for v in value]
    return value


def outcome(run: str, data: dict) -> tuple:
    """(exit class, stdout, error message) of one scenario; run "<mode> csv" prints csv."""
    from foggame import equilibrium
    from foggame.errors import FogGameError
    from foggame.parsing import _graph_builder, _parse_config
    from foggame.scenario import run_record
    from foggame.serialize import emit_json
    from foggame.sweep import sweep_record
    from foggame.tabular import emit_csv

    mode, _, form = run.partition(" ")
    try:
        if mode in ANALYSES:
            g1 = _graph_builder(data["graph"])[1]()
            result = getattr(equilibrium, mode)(g1, data["n2"], _parse_config(data["config"]))
            return "ok", repr(result), ""
        if mode == "sweep":
            record = sweep_record(data["template"], data["parameter"], data["values"])
        else:
            record = run_record({"mode": mode, **data})
        if form == "csv":
            return "ok", emit_csv(mode, record["payload"]), ""
    except (FogGameError, ValueError) as exc:
        return type(exc).__name__, "", str(exc)
    out = io.StringIO()
    emit_json(_masked(record), out)
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
