"""Streamed canonical JSON against the one json.dumps string it replaces.

reference() is the emission the command line used before it streamed: the
record converted again by to_jsonable, then json.dumps over the whole of
it.  serialize.emit_json must write the same bytes from a record that was
converted once, EMIT_BATCH encoder chunks per write, and never hold the
whole text.  A record that cannot be emitted is refused by the conversion,
before anything is written.
"""

import hashlib
import io
import json
import math
import sys
import tracemalloc
from pathlib import Path

import pytest

from foggame import cli, scenario
from foggame.scenario import run_record
from foggame.serialize import EMIT_BATCH, emit_json, to_jsonable
from foggame.sweep import sweep_record

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")

sys.path.insert(0, PERFBENCH)
_dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
try:
    import workloads
finally:
    sys.dont_write_bytecode = _dont_write
    sys.path.remove(PERFBENCH)


def reference(record):
    return json.dumps(to_jsonable(record), sort_keys=True, indent=2, allow_nan=False) + "\n"


def streamed(record):
    out = io.StringIO()
    emit_json(record, out)
    return out.getvalue()


class Sink:
    """A stream that keeps only a digest of the text and the number of writes."""

    def __init__(self):
        self.digest = hashlib.sha256()
        self.writes = 0

    def write(self, text):
        self.digest.update(text.encode())
        self.writes += 1


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_streamed_text_matches_the_reference_on_the_seed_1_workloads(workload):
    for case in workloads.build(workload, 1):
        record = run_record(json.loads(case.text()))
        assert streamed(record) == reference(record), case.name


def test_streamed_text_matches_the_reference_on_a_verify_record():
    record = run_record({"mode": "verify"})
    assert streamed(record) == reference(record)


def test_streamed_text_matches_the_reference_on_a_sweep_with_infinite_costs():
    # A job without links costs inf in every record of the sweep.
    template = {
        "mode": "cost",
        "graph": {"kind": "path", "n": 3},
        "options": {"level2_strategies": [[0], [], [1, 2]]},
    }
    record = sweep_record(template, "beta", [0.5, 1.5])
    text = streamed(record)
    assert '"inf"' in text
    assert text == reference(record)


def test_a_gen_record_is_written_in_batches_of_encoder_chunks():
    record = run_record({"mode": "gen", "graph": {"kind": "complete", "n": 60}})
    chunks = sum(1 for _ in json.JSONEncoder(sort_keys=True, indent=2).iterencode(record))
    sink = Sink()
    emit_json(record, sink)
    assert sink.digest.hexdigest() == hashlib.sha256(reference(record).encode()).hexdigest()
    # Every full batch is one write, then the last partial one and the newline.
    assert chunks > 50 * EMIT_BATCH
    assert sink.writes == -(-chunks // EMIT_BATCH) + 1
    # Unbuffered, every write is a system call: a batch must amortise it.
    assert sink.writes * 100 < chunks


def test_streaming_holds_a_tenth_of_the_reference_memory():
    record = run_record({"mode": "gen", "graph": {"kind": "complete", "n": 150}})
    tracemalloc.start()
    try:
        text = reference(record)
        _, reference_peak = tracemalloc.get_traced_memory()
        del text
        tracemalloc.reset_peak()
        sink = Sink()
        emit_json(record, sink)
        _, streamed_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert streamed_peak * 10 < reference_peak, (streamed_peak, reference_peak)


def test_conversion_refuses_nan_before_anything_is_written(monkeypatch, capsys):
    # The NaN sorts last, so an encoder that refused it would already have
    # written the list before it.
    refused = {"a": [0.5] * 5000, "z": math.nan}
    with pytest.raises(ValueError, match="^Out of range float values are not JSON compliant: nan$"):
        to_jsonable(refused)
    monkeypatch.setattr(scenario, "_payload", lambda data: refused)
    assert cli.main(["gen", "--kind", "path", "--n", "3"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "foggame: Out of range float values are not JSON compliant: nan\n"


def test_a_sweep_whose_echoed_template_holds_nan_prints_nothing(tmp_path, capsys):
    # Every run overrides the NaN beta, but the sweep echoes its template.
    path = tmp_path / "poa.json"
    path.write_text('{"mode": "poa", "graph": {"kind": "path", "n": 2}, "config": {"beta": NaN}}')
    argv = ["sweep", str(path), "--parameter", "beta", "--values", "0.5,1.5"]
    assert cli.main(argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "foggame: Out of range float values are not JSON compliant: nan\n"
