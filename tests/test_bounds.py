"""Closed-form bound formulas and the instance-level bound checker."""

import pytest

from foggame import bounds, equilibrium, model
from foggame.bounds import (
    BoundCheck,
    EQUALITY_TOLERANCE,
    check_bounds_on_instance,
    level1_lower_bound,
    make_check,
    rcs_holds,
    rcs_min_constant,
    type1_lower_bound,
    type1_poa_lower,
    type1_poa_upper,
    type1_saddle_grid,
    type1_social_optimum,
    type2_lower_bound,
    type2_poa_bound,
)
from foggame.domination import min_dominating_set
from foggame.generators import generate
from foggame.graph import INF
from foggame.model import (
    GameConfig,
    GameState,
    JobCostType,
    Level1Profile,
    Level2Profile,
    TransitPolicy,
    social_cost_level1,
)


# -------------------------------------------------------------- level-1 bound


def test_level1_lower_bound_values():
    assert level1_lower_bound(2, 1, 4.0) == 6.0
    assert level1_lower_bound(3, 3, 2.0) == 12.0
    assert level1_lower_bound(1, 0, 7.0) == 0.0


def test_level1_lower_bound_is_tight_for_a_single_bought_edge():
    l1 = Level1Profile((frozenset({1}), frozenset()))
    st = GameState(l1, Level2Profile(2, (frozenset(), frozenset())))
    cfg = GameConfig(alpha=4.0)
    assert social_cost_level1(st, cfg) == level1_lower_bound(2, 1, 4.0)


def test_level1_lower_bound_validation():
    with pytest.raises(ValueError, match="non-negative"):
        level1_lower_bound(-1, 0, 1.0)
    with pytest.raises(ValueError, match="alpha"):
        level1_lower_bound(2, 1, -2.0)


# ------------------------------------------------------------ reciprocal sums


def test_rcs_holds_simple_case():
    check = rcs_holds([1.0, 1.0], upper=2.0, c=1.0)
    assert check.name == "reciprocal-sum-bound"
    assert check.holds
    assert check.lhs == 2.0
    assert check.rhs == pytest.approx(8.0)


def test_rcs_fails_when_the_constant_is_too_small():
    check = rcs_holds([0.01, 1.0], upper=2.0, c=0.01)
    assert not check.holds


def test_rcs_hypothesis_validation():
    with pytest.raises(ValueError, match="at least one"):
        rcs_holds([], upper=1.0, c=1.0)
    with pytest.raises(ValueError, match="positive"):
        rcs_holds([0.0, 1.0], upper=2.0, c=1.0)
    with pytest.raises(ValueError, match="strictly below"):
        rcs_holds([2.0], upper=2.0, c=1.0)
    with pytest.raises(ValueError, match="upper bound"):
        rcs_holds([1.0], upper=0.0, c=1.0)


def test_rcs_min_constant_values():
    assert rcs_min_constant([1.0, 1.0], upper=2.0) == 0.25
    assert rcs_min_constant([4.0, 4.0], upper=4.0) == pytest.approx(1.0 / 16.0)
    for u in (1.0, 2.0, 5.0):
        assert rcs_min_constant([u / 2], upper=u) == pytest.approx(1.0 / (u * u))


def test_rcs_min_constant_allows_values_at_the_upper_bound():
    # the bound checker is strict, but the constant solver admits a_i == U
    assert rcs_min_constant([4.0, 4.0, 4.0], upper=4.0) == pytest.approx(1.0 / 16.0)
    with pytest.raises(ValueError, match="not exceed"):
        rcs_min_constant([5.0], upper=4.0)


def test_rcs_min_constant_makes_the_bound_tight():
    values = [1.0, 3.0, 2.5]
    c = rcs_min_constant(values, upper=4.0)
    lhs = sum(1.0 / v for v in values)
    rhs = c * 16.0 * 9.0 / sum(values)
    assert lhs == pytest.approx(rhs)
    assert rcs_holds(values, upper=4.0, c=c * 1.0000001).holds


# -------------------------------------------------------- type-I bound family


def test_type1_lower_bound_value_and_domain():
    assert type1_lower_bound(2, 0, 1.0, 1.0) == -8.0
    with pytest.raises(ValueError, match="domain"):
        type1_lower_bound(2, 8, 1.0)
    with pytest.raises(ValueError, match="non-negative"):
        type1_lower_bound(2, -1, 1.0)
    with pytest.raises(ValueError, match="n >= 1"):
        type1_lower_bound(0, 0, 1.0)


def test_type1_lower_bound_derivative():
    # slope beta - 4cn^4/(2n^2 - I)^2 via central differences
    n, beta, c = 3, 2.0, 0.25
    for i in (1.0, 5.0, 11.0):
        h = 1e-6
        numeric = (type1_lower_bound(n, i + h, beta, c) - type1_lower_bound(n, i - h, beta, c)) / (2 * h)
        analytic = beta - 4 * c * n**4 / (2 * n * n - i) ** 2
        assert numeric == pytest.approx(analytic, abs=1e-4)


def test_type1_lower_bound_is_concave_in_i():
    n, beta, c = 2, 1.0, 1.0 / 16
    for a, b in ((0.0, 4.0), (1.0, 7.0), (2.0, 6.0)):
        mid = type1_lower_bound(n, (a + b) / 2, beta, c)
        chord = (type1_lower_bound(n, a, beta, c) + type1_lower_bound(n, b, beta, c)) / 2
        assert mid >= chord


def test_type1_social_optimum_values():
    assert type1_social_optimum(1, 1.0, 1.0 / 16) == (1.5, 1.0)
    assert type1_social_optimum(1, 4.0, 1.0) == (1.0, 0.0)
    # c == beta collapses the stationary point onto I = 0
    i_star, cost_star = type1_social_optimum(2, 3.0, 3.0)
    assert i_star == 0.0
    assert cost_star == -24.0


def test_type1_social_optimum_matches_the_curve():
    for n in (1, 2, 3, 4):
        for beta in (1.0, 4.0):
            for c in (1.0 / 16, 1.0 / 64):
                i_star, cost_star = type1_social_optimum(n, beta, c)
                assert type1_lower_bound(n, i_star, beta, c) == pytest.approx(
                    cost_star, abs=EQUALITY_TOLERANCE
                )


def test_type1_social_optimum_validation():
    with pytest.raises(ValueError, match="c <= beta"):
        type1_social_optimum(2, 1.0, 2.0)
    with pytest.raises(ValueError, match="c > 0"):
        type1_social_optimum(2, 1.0, 0.0)
    with pytest.raises(ValueError, match="n >= 1"):
        type1_social_optimum(0, 1.0, 0.5)


def test_type1_saddle_grid_values():
    assert type1_saddle_grid(1, 1.0, 1.0 / 16) == 1
    assert type1_saddle_grid(2, 4.0, 1.0 / 64) == 7


def test_type1_saddle_grid_tracks_the_stationary_point():
    for n in (1, 2, 3):
        for beta in (1.0, 2.0, 4.0):
            for c in (1.0 / 16, 1.0 / 64):
                i_star, _ = type1_social_optimum(n, beta, c)
                assert abs(type1_saddle_grid(n, beta, c) - i_star) <= 1.0


def test_type1_poa_upper_values():
    assert type1_poa_upper(1.0, 1.0 / 16) == 1.0
    assert type1_poa_upper(1.0, 1.0 / 64) == pytest.approx(2.0 / 3.0)
    # vanishing c drives the ratio toward one half
    assert type1_poa_upper(1.0, 1e-18) == pytest.approx(0.5, abs=1e-8)


def test_type1_poa_upper_validation():
    with pytest.raises(ValueError, match="0 < beta <= 1"):
        type1_poa_upper(1.5, 0.1)
    with pytest.raises(ValueError, match="degenerate"):
        type1_poa_upper(0.2, 0.1)


def test_type1_poa_lower_values():
    assert type1_poa_lower(2, 4, 9.0, 1.0) == pytest.approx(0.75)
    with pytest.raises(ValueError, match="beta > 1"):
        type1_poa_lower(2, 4, 0.5, 0.1)
    with pytest.raises(ValueError, match="degenerate"):
        type1_poa_lower(1, 1, 4.0, 1.0)
    with pytest.raises(ValueError, match="gamma"):
        type1_poa_lower(0, 4, 9.0, 1.0)


# ------------------------------------------------------- type-II bound family


def test_type2_lower_bound_values():
    assert type2_lower_bound(3, 9, 0.5) == 13.5
    assert type2_lower_bound(4, 0, 7.0) == 32.0
    # beta == 1 flattens the interconnection term
    assert type2_lower_bound(3, 5, 1.0) == 18.0
    assert type2_lower_bound(3, 2, 1.0) == 18.0


def test_type2_lower_bound_validation():
    with pytest.raises(ValueError, match="n >= 0"):
        type2_lower_bound(-1, 0, 1.0)
    with pytest.raises(ValueError):
        type2_lower_bound(2, 5, 1.0)  # more links than n^2


@pytest.mark.parametrize(
    "beta,kind,value,threshold",
    [
        (0.5, "exact", 1.0, None),
        (2.0, "exact", 1.0, None),
        (2.5, "uncovered", None, None),
        (3.0, "uncovered", None, None),
        (3.5, "upper", 2.5, 3),
        (4.0, "upper", 2.5, 3),
        (4.5, "upper", 3.0, 4),
    ],
)
def test_type2_poa_bound_regimes(beta, kind, value, threshold):
    verdict = type2_poa_bound(beta)
    assert verdict.kind == kind
    assert verdict.value == value
    assert verdict.threshold == threshold


def test_type2_poa_bound_validation():
    with pytest.raises(ValueError, match="beta > 0"):
        type2_poa_bound(0.0)


# ----------------------------------------------------------- check plumbing


def test_make_check_relations():
    assert make_check("a", 2.0, 2.0, "==").holds
    assert make_check("a", 2.0, 2.0 + 1e-10, "==").holds
    assert not make_check("a", 2.0, 2.1, "==").holds
    assert make_check("a", INF, 13.5, ">=").holds
    assert make_check("a", INF, INF, "==").holds
    assert not make_check("a", 13.5, INF, ">=").holds
    assert make_check("a", 1.0, 1.0 + 1e-13, ">=").holds  # slack absorbs rounding
    with pytest.raises(ValueError, match="unknown relation"):
        make_check("a", 1.0, 2.0, "<")


# -------------------------------------------------------- instance-level runs


def test_check_bounds_type2_fixed_graph():
    g1 = generate("complete", 3)
    st = GameState(g1, Level2Profile(3, (frozenset({0, 1, 2}),) * 3), allow_unequal=False)
    checks = check_bounds_on_instance(st, GameConfig(beta=0.5))
    by_name = {c.name: c for c in checks}
    social = by_name["type2-social-lower-bound"]
    assert social.lhs == social.rhs == 13.5
    assert social.holds
    poa = by_name["type2-poa-regime"]
    assert poa.relation == "=="
    assert poa.lhs == poa.rhs == 1.0
    assert all(c.holds for c in checks)


def test_check_bounds_type1_includes_rcs_regime():
    g1 = generate("complete", 3)
    st = GameState(g1, Level2Profile(3, (frozenset({0}),) * 3))
    cfg = GameConfig(beta=1.0, job_cost_type=JobCostType.TYPE_I)
    names = [c.name for c in check_bounds_on_instance(st, cfg)]
    assert "type1-social-lower-bound" in names
    assert "reciprocal-sum-constant-regime" in names
    assert all(c.holds for c in check_bounds_on_instance(st, cfg))


def test_check_bounds_profile_mode_adds_level1():
    l1 = Level1Profile((frozenset({1}), frozenset({2}), frozenset()))
    st = GameState(l1, Level2Profile(3, (frozenset({0}),) * 3))
    checks = check_bounds_on_instance(st, GameConfig(alpha=3.0, beta=3.5))
    by_name = {c.name: c for c in checks}
    level1 = by_name["level1-social-lower-bound"]
    assert level1.lhs == level1.rhs == 14.0
    poa = by_name["type2-poa-regime"]
    assert poa.relation == "<="
    assert poa.rhs == 2.5
    assert all(c.holds for c in checks)


def test_check_bounds_skips_the_poa_check_past_the_joint_guard(monkeypatch):
    # Complete 4x4 has one lend class, so its walk predicts 4 + 2^4 = 20
    # job-cost reads and the PoA check runs.  Past a guard of 19 it is
    # skipped and the other checks still run.
    st = GameState(generate("complete", 4), Level2Profile(4, (frozenset(range(4)),) * 4))
    cfg = GameConfig(beta=0.5)
    names = [c.name for c in check_bounds_on_instance(st, cfg)]
    assert names == ["type2-social-lower-bound", "type2-poa-regime"]
    monkeypatch.setattr(equilibrium, "JOINT_ENUMERATION_GUARD", 19)
    names = [c.name for c in check_bounds_on_instance(st, cfg)]
    assert names == ["type2-social-lower-bound"]


def test_check_bounds_rejects_unequal_populations():
    st = GameState(
        generate("complete", 3),
        Level2Profile(3, (frozenset({0}),) * 2),
        allow_unequal=True,
    )
    with pytest.raises(ValueError, match="n1"):
        check_bounds_on_instance(st, GameConfig())


def test_check_bounds_refuses_unequal_populations_before_pricing(monkeypatch):
    # Path 2800 with one job is within the cost guard, and pricing its
    # 2,801 players takes seconds; the counts alone refuse it.
    def price(*args):
        raise AssertionError("a player was priced before the counts were compared")

    monkeypatch.setattr(bounds, "cost_report", price)
    monkeypatch.setattr(model, "_player_costs", price)
    st = GameState(generate("path", 2800), Level2Profile(2800, (frozenset({0}),)), allow_unequal=True)
    with pytest.raises(ValueError, match="^bound formulas assume n1 == n2, got n1=2800, n2=1$"):
        check_bounds_on_instance(st, GameConfig())


# ---------------------------------------------------------- mid-beta optimum


@pytest.mark.parametrize(
    "kind, transit",
    [("complete", TransitPolicy.FOG_ONLY), ("path", TransitPolicy.FULL_COMBINED)],
    ids=["complete-fog-only", "path"],
)
def test_mid_beta_optimum_charges_the_domination_term_per_job(kind, transit):
    # For 1 < beta <= 2 the TYPE_II optimum is 2n^2 + n*gamma*(beta - 1),
    # every job buying a dominating set, not 2n^2 + gamma*(beta - 1).
    n, beta = 3, 1.5
    g1 = generate(kind, n)
    gamma = len(min_dominating_set(g1))
    report = equilibrium.empirical_poa(g1, n, GameConfig(beta=beta, transit_policy=transit))
    assert gamma == 1
    assert report.optimum_cost == 2 * n * n + n * gamma * (beta - 1) == 19.5
    assert report.optimum_cost != 2 * n * n + gamma * (beta - 1)
    assert report.worst_ne_cost == 19.5


def test_bound_check_is_a_frozen_record():
    check = make_check("sample", 1.0, 2.0, ">=", context="demo")
    assert isinstance(check, BoundCheck)
    assert check.context == "demo"
    with pytest.raises(AttributeError):
        check.lhs = 3.0
