"""What `import foggame.cli` loads: only what a poa, dynamics or cost run executes.

A CLI run starts in a fresh interpreter, so module imports, and without a
bytecode cache their compilation, are a large share of a small scenario's
wall time.  The bounds and verify modes load their modules on first use,
as do generator graph sections (generators), the bounds and verify
modes' dominating sets (domination), --format csv (tabular, csv) and the
sweep command (sweep, copy); records are named tuples rather than
dataclasses.  Each probe runs in a fresh interpreter without bytecode caching,
and what it adds is measured against a bare interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import foggame

PACKAGE_ROOT = str(Path(foggame.__file__).resolve().parents[1])

NOT_AT_CLI_IMPORT = (
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


def test_inline_graph_runs_load_no_mode_only_module(tmp_path):
    # poa and dynamics runs on inline graphs, as the benchmark workloads
    # give them, compile no module that only other modes or sections read.
    edges = [[0, 1], [1, 2], [2, 3]]
    poa = tmp_path / "poa.json"
    poa.write_text(json.dumps({"graph": {"n": 4, "edges": edges}, "n2": 2, "config": {"beta": 3.5}}))
    dynamics = tmp_path / "dynamics.json"
    dynamics.write_text(json.dumps({"graph": {"n": 4, "edges": edges}, "n2": 4, "config": {"beta": 1.5}}))
    runs = "".join(
        f"    assert foggame.cli.main({argv!r}) == 0\n"
        for argv in (["poa", str(poa)], ["dynamics", str(dynamics), "--seed", "2"])
    )
    loaded = _modules_after(
        "import contextlib, io\nimport foggame.cli\n"
        f"with contextlib.redirect_stdout(io.StringIO()):\n{runs}"
    )
    assert "foggame.equilibrium" in loaded
    assert sorted(set(NOT_AT_CLI_IMPORT) & loaded) == []


def test_package_import_loads_no_submodule():
    loaded = _modules_after("import foggame")
    assert sorted(m for m in loaded if m.startswith("foggame.")) == []


def test_exported_name_loads_its_module_on_first_use():
    loaded = _modules_after("import foggame\nfoggame.type2_poa_bound")
    assert "foggame.bounds" in loaded
    assert "foggame.verify" not in loaded
