"""The benchmark still runs, and its tracer finds every function its metrics read.

perfbench/layers.py names foggame functions by `<module>.<function>` and
perfbench/tracer.py wraps them from outside the package; a metric whose
function no longer exists, or is no longer traced, silently reads 0.  The
tracer patches the loaded package, so it runs in a subprocess.  The
benchmark's own self-test runs here too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

_PROBE = """
import inspect, json, sys
sys.path.insert(0, sys.argv[1])
import foggame.cli  # the tracer walks the modules a CLI run has loaded
import layers, tracer

wrapped = {}
wrap = tracer.Spans.wrap

def recording(self, name, fn):
    wrapped[name] = fn
    return wrap(self, name, fn)

tracer.Spans.wrap = recording
spans = tracer.install()
names = set(layers.CALLS_SELF) | set(layers.CACHED) | set(layers.ANALYSES)
names |= set(layers.ORACLES) | set(layers.ORACLES.values())
traced = {}
for name, fn in wrapped.items():
    fn = inspect.unwrap(fn)  # an lru_cache wrapper keeps the function underneath
    traced[name] = [inspect.isfunction(fn), inspect.getsourcefile(fn)]
cache_info = [n for n, fn in spans.caches.items() if callable(getattr(fn, "cache_info", None))]
print(json.dumps({
    "names": sorted(names),
    "traced": traced,
    "cached": sorted(layers.CACHED),
    "cache_info": sorted(cache_info),
}))
"""


@pytest.fixture(scope="module")
def probe() -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(ROOT / "perfbench")],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1"),
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_every_layer_metric_names_a_traced_foggame_function(probe):
    package = (ROOT / "src" / "foggame").resolve()
    for name in probe["names"]:
        assert name in probe["traced"], f"{name} is read by layers.py but never traced"
        is_function, filename = probe["traced"][name]
        assert is_function, name
        assert Path(filename).resolve().parent == package, (name, filename)


def test_cached_functions_expose_cache_info(probe):
    assert probe["cached"] == ["graph.all_pairs_distances", "model.build_level1_graph"]
    assert probe["cache_info"] == probe["cached"]


def test_benchmark_selftest_passes():
    # Every workload at the tiny size, traced and untraced: a broken gate,
    # a missing perfbench-enter or peak-RSS marker, or a tracer that no
    # longer patches the package fails here, not only in the benchmark.
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
