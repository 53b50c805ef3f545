"""foggame benchmark: CLI wall time per workload, per-layer spans when traced.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Each workload is a fixed batch of scenario
files drawn from --seed (see workloads.py).  A pass launches the batch's
scenarios one at a time, each as `python3 perfbench/child.py -- <mode>
<file>` in a fresh interpreter with PYTHONPATH=src, because the package is
not installed and a CLI user always starts with cold caches.  Passes repeat
until about --seconds have passed (at least one pass).  Every run is
checked by gate.py; a failed check makes `correct` false and the exit code 1.

--trace 0 prints the end-to-end metrics:
  wall_s       launch of a pass's first scenario process to the exit of its
               last, estimated as the sum over the batch of each scenario's
               median process wall time (launch to exit) across passes;
  setup_s      the part of wall_s before foggame.cli.main is entered
               (interpreter start plus `import foggame.cli`), summed the
               same way;
  peak_rss_mb  the largest peak RSS of any scenario process (see child.py).
Both times are in seconds at the reference speed: each process's times are
divided by the slowdown that reference.py measured around it, because the
shared machines this runs on change speed by 30-50% for minutes at a time.
The report lines before the result also give the unscaled times.

--trace 1 alternates untraced and traced passes and prints the per-layer
metrics named in BENCHMARK.json, taken from the traced passes (see
tracer.py and layers.py), plus trace.overhead_ratio = median traced pass
wall / median untraced pass wall, both scaled.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; lines before it are a human-readable report that adds
quartiles, sample counts and failed_frac.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK_ROOT = HERE / "_work"

DEFAULT_SEED = 1
DEFAULT_SECONDS = 35
# Hard stop for the whole benchmark process; a child still running then is
# killed and counted as failed.
DEADLINE_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


@dataclass
class ProcessRun:
    """One scenario process: its unscaled times, peak RSS and verdict."""

    scenario: str
    wall_s: float
    setup_s: float
    rss_mib: float
    # reference chunk time / its nominal time, averaged over the chunks
    # timed just before and just after this process
    slowdown: float
    error: str | None


@dataclass
class Child:
    wall_s: float
    setup_s: float
    rss_mib: float
    returncode: int
    stdout: str
    stderr: str


class Launcher:
    """Starts one scenario process at a time and reaps it with os.wait4."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.count = 0

    def run(self, args: list[str], trace_path: Path | None = None) -> Child:
        self.count += 1
        out = self.work / f"p{self.count}.out"
        err = self.work / f"p{self.count}.err"
        cmd = [sys.executable, str(CHILD)]
        if trace_path is not None:
            cmd += ["--trace", str(trace_path)]
        cmd += ["--", *args]
        with open(out, "wb") as fout, open(err, "wb") as ferr:
            started = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=fout, stderr=ferr)
            timer = threading.Timer(max(self.deadline - started, 0.0), proc.kill)
            timer.start()
            try:
                _, status, _ = os.wait4(proc.pid, 0)
                ended = time.monotonic()
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        stdout = out.read_text(encoding="utf-8", errors="replace")
        stderr = err.read_text(encoding="utf-8", errors="replace")
        out.unlink()
        err.unlink()
        entered = rss_kib = float("nan")
        for line in stderr.splitlines():
            if line.startswith("perfbench-enter "):
                entered = float(line.split()[1])
            elif line.startswith("perfbench-peak-rss-kib "):
                rss_kib = float(line.split()[1])
        return Child(ended - started, entered - started, rss_kib / 1024, proc.returncode, stdout, stderr)


def run_pass(launcher, gate, batch, files, trace_dir: Path | None = None):
    """Launch every scenario of the batch once; returns (runs, traces).

    A reference chunk is timed before the first scenario, between
    scenarios and after the last, outside every process's wall time.
    """
    refs = [reference.chunk()]
    children = []
    for scenario in batch:
        trace_path = None if trace_dir is None else trace_dir / f"{scenario.name}.spans.json"
        children.append((scenario, trace_path, launcher.run([scenario.mode, str(files[scenario.name])], trace_path)))
        refs.append(reference.chunk())
    runs: list[ProcessRun] = []
    traces = []
    for k, (scenario, trace_path, child) in enumerate(children):
        error = gate.check(scenario, child.returncode, child.stdout)
        if error is None and (child.setup_s != child.setup_s or child.rss_mib != child.rss_mib):
            error = "child did not report entering cli.main and its peak RSS"
        if error is not None:
            tail = child.stderr.strip().splitlines()[-3:]
            error = f"{scenario.name}: {error}" + (f" [{' | '.join(tail)}]" if tail else "")
            print(f"FAILED {error}", file=sys.stderr)
        slowdown = (refs[k] + refs[k + 1]) / 2 / reference.NOMINAL_S
        runs.append(ProcessRun(scenario.name, child.wall_s, child.setup_s, child.rss_mib, slowdown, error))
        if trace_path is not None:
            if error is None:
                with open(trace_path, encoding="utf-8") as handle:
                    traces.append((scenario, json.load(handle), child.stdout))
            trace_path.unlink(missing_ok=True)
    return runs, traces


def scaled_wall(runs: list[ProcessRun]) -> float:
    """A pass's wall time at the reference speed."""
    return sum(r.wall_s / r.slowdown for r in runs)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def end_to_end(batch, passes: list[list[ProcessRun]], scaled: bool = True) -> dict[str, float]:
    """Per-scenario medians over passes, summed over the batch.

    With `scaled`, each process's times are first divided by its slowdown,
    giving seconds at the reference speed (see reference.py).
    """
    report = {}
    for metric in ("wall_s", "setup_s"):
        total = 0.0
        for scenario in batch:
            samples = [
                getattr(r, metric) / (r.slowdown if scaled else 1.0)
                for p in passes for r in p
                if r.scenario == scenario.name and r.error is None
            ]
            if samples:
                total += statistics.median(samples)
        report[metric] = total
    rss = [r.rss_mib for p in passes for r in p if r.error is None]
    report["peak_rss_mb"] = max(rss) if rss else 0.0
    return report


def report_end_to_end(batch, passes: list[list[ProcessRun]]) -> dict[str, dict]:
    values = end_to_end(batch, passes)
    raw = end_to_end(batch, passes, scaled=False)
    q1, q2, q3 = quartiles([scaled_wall(p) for p in passes])
    print(f"  pass wall (scaled)  median {q2:.4f} s  q1 {q1:.4f}  q3 {q3:.4f}  (n={len(passes)} passes)")
    print(f"  unscaled: wall_s {raw['wall_s']:.4f} s  setup_s {raw['setup_s']:.4f} s")
    q1, q2, q3 = quartiles([r.slowdown for p in passes for r in p])
    print(f"  slowdown vs reference  median {q2:.3f}  q1 {q1:.3f}  q3 {q3:.3f}")
    for scenario in batch:
        mine = [r for p in passes for r in p if r.scenario == scenario.name and r.error is None]
        if mine:
            q1, q2, q3 = quartiles([r.wall_s / r.slowdown for r in mine])
            s1, s2, s3 = quartiles([r.setup_s / r.slowdown for r in mine])
            print(f"  {scenario.name:<14} wall median {q2:.4f} s  q1 {q1:.4f}  q3 {q3:.4f}"
                  f"   setup median {s2:.4f} s  q1 {s1:.4f}  q3 {s3:.4f}"
                  f"   rss {max(r.rss_mib for r in mine):.2f} MiB  (n={len(mine)})")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    for name, m in metrics.items():
        print(f"  {name:<14} {m['value']:.6f} {m['unit']}")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full", help="full, or tiny for the self-test")
    args = parser.parse_args(argv)

    if not (SRC / "foggame" / "cli.py").is_file():
        print(f"perfbench: no foggame sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gate as gate_module
    import layers
    import workloads

    try:
        batch = workloads.build(args.workload, args.seed, args.size)
    except ValueError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    pinned = None
    if args.seed == DEFAULT_SEED and args.size == "full":
        pinned = gate_module.load_digests(args.workload)
    gate = gate_module.Gate(pinned)

    started = time.monotonic()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    untraced: list[list[ProcessRun]] = []
    traced: list[tuple[list[ProcessRun], list]] = []
    try:
        files = {}
        for scenario in batch:
            files[scenario.name] = work / f"{scenario.name}.json"
            files[scenario.name].write_text(scenario.text(), encoding="utf-8")
        launcher = Launcher(work, started + DEADLINE_S)
        # Compile the package's bytecode and warm the file cache once, so the
        # first measured process does not pay for it.
        subprocess.run([sys.executable, "-c", "import foggame.cli"], cwd=ROOT, env=launcher.env, check=True)
        budget_start = time.monotonic()
        while True:
            untraced.append(run_pass(launcher, gate, batch, files)[0])
            if args.trace:
                traced.append(run_pass(launcher, gate, batch, files, trace_dir=work))
            # Stop when one more pass would end further past the budget
            # than half a pass, so runs end within half a pass of --seconds.
            spent = time.monotonic() - budget_start
            if spent + spent / len(untraced) / 2 > args.seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    all_runs = [r for p in untraced for r in p] + [r for p, _ in traced for r in p]
    attempted = len(all_runs)
    failed = sum(1 for r in all_runs if r.error is not None)
    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  passes {len(untraced)}"
          f"{' + ' + str(len(traced)) + ' traced' if traced else ''}  scenarios/pass {len(batch)}"
          f"  python {sys.version.split()[0]}  cpus {os.cpu_count()}")
    print(f"failed_frac {failed / attempted:.4f}  ({failed} of {attempted} scenario runs)")
    if args.trace:
        metrics = layers.per_layer(traced, untraced, scaled_wall)
        for name, m in metrics.items():
            print(f"  {name:<50} {m['value']:>14.6g} {m['unit']}")
    else:
        metrics = report_end_to_end(batch, untraced)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
