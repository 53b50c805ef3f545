"""Acceptance battery: every shipped guarantee, one verdict line each.

Each test prints "criterion NN <name>: PASS|FAIL - details" before
asserting, so a plain `pytest -s tests/test_acceptance.py` reads as a
checklist.  Criteria with a stated wall-clock budget also assert it.
"""

import io
import time

from foggame import verify
from foggame.scenario import run_spec
from foggame.serialize import emit_json


def _emitted(record):
    out = io.StringIO()
    emit_json(record, out)
    return out.getvalue()


def _timed(check):
    start = time.monotonic()
    result = check()
    return result, time.monotonic() - start


def _report(number, result, elapsed=None, budget=None):
    verdict = "PASS" if result.passed else "FAIL"
    print(f"criterion {number:02d} {result.name}: {verdict} - {result.details}")
    assert result.passed, result.details
    if budget is not None:
        assert elapsed < budget, f"criterion {number} took {elapsed:.1f}s, budget {budget}s"


def test_criterion_01_dominating_set_oracle_equivalence():
    result, elapsed = _timed(verify.check_dominating_set_oracle)
    _report(1, result, elapsed, budget=10.0)


def test_criterion_02_exact_poa_at_low_beta():
    result, elapsed = _timed(verify.check_poa_exact_low_beta)
    _report(2, result, elapsed, budget=60.0)


def test_criterion_03_mds_best_response_structure():
    result, elapsed = _timed(verify.check_mds_best_response_structure)
    _report(3, result, elapsed, budget=60.0)


def test_criterion_04_poa_bound_at_midrange_beta():
    result, elapsed = _timed(verify.check_poa_bound_midrange_beta)
    _report(4, result, elapsed, budget=300.0)


def test_criterion_05_type2_lower_bound_property():
    result, _ = _timed(verify.check_type2_lower_bound_property)
    _report(5, result)


def test_criterion_06_level1_lower_bound_property():
    result, _ = _timed(verify.check_level1_lower_bound_property)
    _report(6, result)


def test_criterion_07_reciprocal_sum_constant_regime():
    result, _ = _timed(verify.check_rcs_constant_regime)
    _report(7, result)


def test_criterion_08_type1_saddle_consistency():
    result, _ = _timed(verify.check_type1_saddle_consistency)
    _report(8, result)


def test_criterion_09_dynamics_soundness():
    result, _ = _timed(verify.check_dynamics_soundness)
    _report(9, result)


def test_criterion_10_non_dominating_best_response_flagged():
    result, _ = _timed(verify.check_non_dominating_br_flag)
    _report(10, result)


def test_criterion_11_verify_payload_is_deterministic():
    first = _emitted(run_spec({"mode": "verify"}))
    second = _emitted(run_spec({"mode": "verify"}))
    passed = first == second
    detail = f"{len(first.encode())} bytes compared across two runs"
    print(f"criterion 11 verify-payload-determinism: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, "verify payloads differ between runs"
