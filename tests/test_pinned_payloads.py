"""The benchmark's pinned payloads, checked on every test run.

perfbench/digests.json pins the SHA-256 of the payload of each seed-1,
full-size scenario of the three benchmark workloads.  Each scenario runs
in process through scenario.run_record and serialize.emit_json, as
`foggame <mode> <file>` prints it, and must pass the benchmark's own gate:
the pinned digest and the gate's invariants.  perfbench/ is only read:
its modules are imported without writing bytecode.
"""

import io
import json
import sys
from pathlib import Path

import pytest

from foggame.scenario import run_record
from foggame.serialize import emit_json

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")

sys.path.insert(0, PERFBENCH)
_dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
try:
    import gate
    import workloads
finally:
    sys.dont_write_bytecode = _dont_write
    sys.path.remove(PERFBENCH)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_1_payloads_match_the_pinned_digests(workload):
    pinned = gate.load_digests(workload)
    batch = workloads.build(workload, 1)
    assert sorted(s.name for s in batch) == sorted(pinned)
    check = gate.Gate(pinned).check
    for scenario in batch:
        record = run_record(json.loads(scenario.text()))
        out = io.StringIO()
        emit_json(record, out)
        assert check(scenario, 0, out.getvalue()) is None, scenario.name
