"""The verify battery's payload, pinned line by line, and its crash reports."""

import math

from foggame import verify
from foggame.scenario import run_spec

PINNED_CHECKS = [
    {
        "name": "dominating-set-exact-vs-bruteforce",
        "passed": True,
        "details": "50/50 graphs agree",
    },
    {
        "name": "poa-exact-low-beta-complete3",
        "passed": True,
        "details": "poa=1.0, optimum=13.5, complete-bipartite stable=True, ne_count=1",
    },
    {
        "name": "mds-best-response-structure",
        "passed": True,
        "details": "30/30 best responses are minimum dominating sets at the closed-form cost",
    },
    {
        "name": "poa-bound-midrange-beta",
        "passed": True,
        "details": "bound=2.5; path3 poa=1.0, complete3 poa=1.0, star3 poa=1.0",
    },
    {
        "name": "type2-social-lower-bound-property",
        "passed": True,
        "details": "1800/1800 profiles satisfy the bound",
    },
    {
        "name": "level1-social-lower-bound-property",
        "passed": True,
        "details": "200/200 profile/alpha pairs satisfy the bound",
    },
    {
        "name": "rcs-constant-application-regime",
        "passed": True,
        "details": "17576/17576 multisets stay at or below 1; largest constant 0.25",
    },
    {
        "name": "type1-saddle-grid-consistency",
        "passed": True,
        "details": "16/16 parameter points consistent",
    },
    {
        "name": "dynamics-termination-and-stability",
        "passed": True,
        "details": "20/20 runs converge to a verified equilibrium with strict improvements",
    },
    {
        "name": "non-dominating-best-response-flagged",
        "passed": True,
        "details": "strategy=[2], cost=111.0, dominating=False, beta_in_supported_range=False",
    },
]


def test_verify_payload_matches_the_pinned_checks():
    # A check added to the battery, or a passing line that changes, shows here.
    assert run_spec({"mode": "verify"}) == {"checks": PINNED_CHECKS, "all_passed": True}


def test_a_crashed_check_fails_under_its_own_name(monkeypatch):
    def unavailable(*args, **kwargs):
        raise RuntimeError("generator unavailable")

    monkeypatch.setattr(verify, "generate", unavailable)
    results = verify.run_all()
    assert [r.name for r in results] == [c["name"] for c in PINNED_CHECKS]
    crashed = [r for r in results if r.details.startswith("raised ")]
    # every check but the level-1, constant and saddle ones draws a graph
    assert len(crashed) == 7
    for result in crashed:
        assert result.passed is False
        assert result.details == "raised RuntimeError: generator unavailable"


def test_a_failing_sampled_check_reports_its_count_and_first_failure(monkeypatch):
    monkeypatch.setattr(verify, "_relation_holds", lambda lhs, rhs, relation: False)
    assert verify.check_type2_lower_bound_property() == verify.CheckResult(
        "type2-social-lower-bound-property",
        False,
        "0/1800 profiles satisfy the bound; first failure at instance 0, beta=0.5",
    )


def test_the_type2_bound_is_tested_on_finite_costs_only(monkeypatch):
    # A job with an empty strategy has an infinite cost, which meets any
    # finite lower bound without testing it.
    costs = []
    priced = verify.social_cost_level2

    def recorded(state, cfg):
        costs.append(priced(state, cfg))
        return costs[-1]

    monkeypatch.setattr(verify, "social_cost_level2", recorded)
    assert verify.check_type2_lower_bound_property().passed
    assert len(costs) == 1800
    assert all(math.isfinite(c) for c in costs)
