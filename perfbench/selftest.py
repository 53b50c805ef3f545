"""Self-test for the benchmark; runs every workload at the tiny size.

    python3 perfbench/selftest.py

Checks, per workload:
  * --trace 0 prints exactly the end_to_end metrics of BENCHMARK.json, each
    with its unit, and reports no failed scenario;
  * --trace 1 prints exactly the per_layer metrics with their units, and
    every count (and ratio of counts) repeats exactly in a second traced run;
and that run.py exits non-zero without a result line when the sources are
missing, as in a directory that holds only BENCHMARK.json and perfbench/.
Exits 0 when everything holds.  Takes about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# Per-layer metrics that are not wall-clock measurements and must repeat.
EXACT_SUFFIXES = (".calls", ".candidates", ".hit_ratio", "evals_per_br", "ne_ratio", "move_ratio")


def run(args: list[str], cwd: Path = ROOT) -> tuple[int, dict | None, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result, proc.stderr


def expect_metrics(result: dict, declared: list[dict], where: str) -> list[str]:
    problems = []
    printed = result["metrics"]
    names = [m["name"] for m in declared]
    if sorted(printed) != sorted(names):
        problems.append(f"{where}: metrics {sorted(printed)} != declared {sorted(names)}")
    for m in declared:
        got = printed.get(m["name"])
        if got is not None and got.get("unit") != m["unit"]:
            problems.append(f"{where}: {m['name']} unit {got.get('unit')!r} != {m['unit']!r}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} failed={result['failed']}")
    return problems


def main() -> int:
    problems: list[str] = []
    tiny = ["--size", "tiny", "--seconds", "1", "--seed", "7"]
    for workload in (w["name"] for w in SPEC["workloads"]):
        code, result, err = run(["--workload", workload, "--trace", "0", *tiny])
        if code != 0 or result is None:
            problems.append(f"{workload} trace 0: exit {code}: {err.strip()[-300:]}")
        else:
            problems += expect_metrics(result, SPEC["end_to_end"], f"{workload} trace 0")
        traced = []
        for attempt in (1, 2):
            code, result, err = run(["--workload", workload, "--trace", "1", *tiny])
            if code != 0 or result is None:
                problems.append(f"{workload} trace 1 #{attempt}: exit {code}: {err.strip()[-300:]}")
                break
            problems += expect_metrics(result, SPEC["per_layer"], f"{workload} trace 1")
            traced.append(result["metrics"])
        if len(traced) == 2:
            for name, value in traced[0].items():
                if name.endswith(EXACT_SUFFIXES) and traced[1].get(name, {}).get("value") != value["value"]:
                    problems.append(f"{workload}: {name} differs between traced runs")
        print(f"{workload}: checked", flush=True)

    work = HERE / "_work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "_work"))
        code, result, _ = run(["--workload", SPEC["workloads"][0]["name"], "--seconds", "1"], cwd=bare)
        if code == 0 or result is not None:
            problems.append(f"without sources: exit {code}, result {result}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass
    print("without sources: checked", flush=True)

    for p in problems:
        print(f"PROBLEM {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
