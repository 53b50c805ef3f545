"""What `import foggame.cli` loads, and what each kind of run adds to it.

A CLI run starts in a fresh interpreter, so module imports, and without a
bytecode cache their compilation, are a large share of a small scenario's
wall time.  `import foggame.cli` loads what every mode shares, and each
mode's engine loads inside main, on its first call: the per-player
oracle engine (oracles) for nash and dynamics, the joint analyses'
lend-class engine (joint) for poa, each with the distance-layer kernel
(kernel), the cost mode's report (costs) in the cost mode, and the greedy
local search (greedy) on the first greedy best response.  The bounds and
verify modes load their modules on first use, as do generator graph
sections (generators), the bounds and verify modes' dominating sets
(domination), --format csv (tabular, csv) and the sweep command (sweep,
copy); records are named tuples rather than dataclasses.  Each probe runs
in a fresh interpreter without bytecode caching, and what it adds is
measured against a bare interpreter.

Without a bytecode cache each module is parsed from source, and the
parser's peak memory for the largest module parsed sets the process's
peak RSS: later compiles reuse that memory, but it is not returned to the
operating system.  No module a CLI run compiles may parse larger than
model.py, the largest of them.
"""

import importlib.machinery
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import foggame

PACKAGE_ROOT = str(Path(foggame.__file__).resolve().parents[1])

NOT_AT_CLI_IMPORT = (
    "foggame.oracles",
    "foggame.joint",
    "foggame.kernel",
    "foggame.costs",
    "foggame.greedy",
    "foggame.bounds",
    "foggame.verify",
    "foggame.domination",
    "foggame.generators",
    "foggame.sweep",
    "foggame.tabular",
    "dataclasses",
    "inspect",
    "csv",
    "copy",
    "argparse",
    "gettext",
)


def _modules_after(statement: str) -> set[str]:
    inherited = os.environ.get("PYTHONPATH")
    env = dict(
        os.environ,
        PYTHONPATH=PACKAGE_ROOT if not inherited else PACKAGE_ROOT + os.pathsep + inherited,
        PYTHONDONTWRITEBYTECODE="1",
    )
    proc = subprocess.run(
        [sys.executable, "-c", f"{statement}\nimport json, sys\nprint(json.dumps(list(sys.modules)))"],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


def test_cli_import_skips_mode_only_modules():
    baseline = _modules_after("pass")
    added = _modules_after("import foggame.cli") - baseline
    assert "foggame.cli" in added and "foggame.scenario" in added
    assert sorted(set(NOT_AT_CLI_IMPORT) & added) == []


def _compile_peak(module: str) -> int:
    """Peak bytes tracemalloc sees while the import system compiles module's source."""
    path = importlib.util.find_spec(module).origin
    loader = importlib.machinery.SourceFileLoader(module, path)
    source = loader.get_data(path)
    tracemalloc.start()
    try:
        loader.source_to_code(source, path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_no_module_a_cli_run_compiles_parses_larger_than_model():
    # The engines a mode loads in main (oracles, joint, kernel) and strict
    # section parsing (parsing) are modules of their own so that neither
    # equilibrium.py nor scenario.py outgrows model.py.
    loaded = _modules_after("import foggame.cli")
    assert {"foggame.parsing", "foggame.equilibrium", "foggame.model"} <= loaded
    engines = ["foggame.oracles", "foggame.joint", "foggame.kernel"]
    modules = sorted(m for m in loaded if m.split(".")[0] == "foggame") + engines
    limit = _compile_peak("foggame.model")
    peaks = {m: _compile_peak(m) for m in modules}
    assert {m: peak for m, peak in peaks.items() if peak > limit} == {}, limit


def test_cli_runs_load_no_argument_parser_library(tmp_path):
    # The CLI parses its flags from its own table, so neither argparse nor
    # the gettext it imports loads, before or during a run.
    poa = tmp_path / "poa.json"
    poa.write_text(json.dumps({"graph": {"kind": "complete", "n": 3}, "config": {"beta": 0.5}}))
    dynamics = tmp_path / "dynamics.json"
    dynamics.write_text(json.dumps({"graph": {"kind": "star", "n": 4}, "n2": 4, "config": {"beta": 1.5}}))
    runs = "".join(
        f"    assert foggame.cli.main({argv!r}) == 0\n"
        for argv in (["poa", str(poa), "--beta", "1.5"], ["dynamics", str(dynamics), "--seed", "2"])
    )
    loaded = _modules_after(
        "import contextlib, io\nimport foggame.cli\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n{runs}"
    )
    assert "foggame.equilibrium" in loaded
    assert sorted({"argparse", "gettext"} & loaded) == []


def test_a_command_line_the_plain_reader_declines_loads_argparse():
    # A prefix is argparse's to read: it loads then, and not before, and the
    # run prints what the spelled-out flag prints.
    exact, prefixed = ["gen", "--kind", "path", "--n", "3"], ["gen", "--k", "path", "--n", "3"]
    loaded = _modules_after(
        "import contextlib, io, json, sys\nimport foggame.cli\n"
        "def payload(argv):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        assert foggame.cli.main(argv) == 0\n"
        "    return json.loads(out.getvalue())['payload']\n"
        f"exact = payload({exact!r})\n"
        "assert exact['graph']['n'] == 3 and 'argparse' not in sys.modules\n"
        f"assert payload({prefixed!r}) == exact\n"
    )
    assert "argparse" in loaded


_EDGES = [[0, 1], [1, 2], [2, 3]]


def _loaded_by_run(tmp_path, mode: str, body: dict) -> set[str]:
    """Modules loaded after `foggame <mode>` runs this scenario body and exits 0."""
    scenario = tmp_path / f"{mode}.json"
    scenario.write_text(json.dumps(body))
    return _modules_after(
        "import contextlib, io\nimport foggame.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert foggame.cli.main({[mode, str(scenario)]!r}) == 0\n"
    )


def _mode_only(loaded: set[str]) -> list[str]:
    return sorted(set(NOT_AT_CLI_IMPORT) & loaded)


_PROFILE_OPTIONS = {
    "level1_strategies": [[1], [2], [3], []],
    "level2_strategies": [[0], [1, 2], [3], [0, 3]],
    "scope": "both",
}


def test_exact_profile_runs_load_only_the_oracle_engine(tmp_path):
    # Both levels in profile mode, as the benchmark's dynamics workload
    # runs them: the oracle engine and its kernel load, and neither the
    # joint engine, the cost report nor the greedy search is compiled.
    dynamics = dict(_PROFILE_OPTIONS, schedule="random_permutation", max_rounds=3)
    for mode, options in (("dynamics", dynamics), ("nash", _PROFILE_OPTIONS)):
        body = {"config": {"alpha": 2.0, "beta": 1.5}, "options": options}
        loaded = _loaded_by_run(tmp_path, mode, body)
        assert _mode_only(loaded) == ["foggame.kernel", "foggame.oracles"], mode


def test_poa_run_loads_only_the_joint_engine(tmp_path):
    # A poa run compiles its lend-class engine and the kernel, never the
    # per-player oracle engine.
    body = {"graph": {"n": 4, "edges": _EDGES}, "n2": 2, "config": {"beta": 3.5}}
    loaded = _loaded_by_run(tmp_path, "poa", body)
    assert _mode_only(loaded) == ["foggame.joint", "foggame.kernel"]


def test_refused_dynamics_run_loads_no_engine(tmp_path):
    # A bad schedule is refused before best_response_dynamics loads its engine.
    scenario = tmp_path / "dynamics.json"
    body = {"graph": {"n": 4, "edges": _EDGES}, "n2": 4, "options": {"schedule": "sorted"}}
    scenario.write_text(json.dumps(body))
    loaded = _modules_after(
        "import contextlib, io\nimport foggame.cli\n"
        "with contextlib.redirect_stderr(io.StringIO()) as err:\n"
        f"    assert foggame.cli.main({['dynamics', str(scenario)]!r}) == 1\n"
        "assert 'unknown schedule' in err.getvalue()\n"
    )
    assert "foggame.equilibrium" in loaded
    assert _mode_only(loaded) == []


def test_inline_graph_runs_load_no_mode_only_module(tmp_path):
    # poa and exact dynamics runs on inline graphs, as the benchmark
    # workloads give them, compile no module that only other modes,
    # sections or oracles read; each analysis loads its own engine.
    poa = tmp_path / "poa.json"
    poa.write_text(json.dumps({"graph": {"n": 4, "edges": _EDGES}, "n2": 2, "config": {"beta": 3.5}}))
    dynamics = tmp_path / "dynamics.json"
    dynamics.write_text(json.dumps({"graph": {"n": 4, "edges": _EDGES}, "n2": 4, "config": {"beta": 1.5}}))
    runs = "".join(
        f"    assert foggame.cli.main({argv!r}) == 0\n"
        for argv in (["poa", str(poa)], ["dynamics", str(dynamics), "--seed", "2"])
    )
    loaded = _modules_after(
        "import contextlib, io\nimport foggame.cli\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n{runs}"
    )
    assert "foggame.equilibrium" in loaded
    assert _mode_only(loaded) == ["foggame.joint", "foggame.kernel", "foggame.oracles"]


def test_cost_run_loads_the_cost_report_but_not_the_joint_engine(tmp_path):
    body = {"graph": {"n": 4, "edges": _EDGES}, "n2": 4, "options": {}}
    loaded = _loaded_by_run(tmp_path, "cost", body)
    assert _mode_only(loaded) == ["foggame.costs"]


def test_greedy_dynamics_loads_the_greedy_search(tmp_path):
    body = {"graph": {"n": 4, "edges": _EDGES}, "n2": 4, "options": {"oracle": "greedy"}}
    loaded = _loaded_by_run(tmp_path, "dynamics", body)
    assert _mode_only(loaded) == ["foggame.greedy", "foggame.kernel", "foggame.oracles"]


def test_package_import_loads_no_submodule():
    loaded = _modules_after("import foggame")
    assert sorted(m for m in loaded if m.startswith("foggame.")) == []


def test_exported_name_loads_its_module_on_first_use():
    loaded = _modules_after("import foggame\nfoggame.type2_poa_bound")
    assert "foggame.bounds" in loaded
    assert "foggame.verify" not in loaded
