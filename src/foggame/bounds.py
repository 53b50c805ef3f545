"""Closed-form bound evaluators and empirical bound checks.

The evaluators implement the printed formulas verbatim over floats; the
check helpers compare them against enumerated instances.  Equalities are
accepted within 1e-9, inequalities within a 1e-12 slack.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .costs import cost_report
from .equilibrium import empirical_poa
from .errors import GuardExceeded, NoEquilibriumError
from .model import GameConfig, GameState, JobCostType

EQUALITY_TOLERANCE = 1e-9
INEQUALITY_SLACK = 1e-12


class BoundCheck(NamedTuple):
    """One comparison between a measured value and a closed-form bound."""

    name: str
    lhs: float
    rhs: float
    relation: str
    holds: bool
    context: str


def _relation_holds(lhs: float, rhs: float, relation: str) -> bool:
    if relation == "==":
        if math.isinf(lhs) or math.isinf(rhs):
            return lhs == rhs
        return abs(lhs - rhs) <= EQUALITY_TOLERANCE
    if relation == "<=":
        return lhs <= rhs + INEQUALITY_SLACK
    if relation == ">=":
        return lhs >= rhs - INEQUALITY_SLACK
    raise ValueError(f"unknown relation {relation!r}")


def make_check(name: str, lhs: float, rhs: float, relation: str, context: str = "") -> BoundCheck:
    return BoundCheck(name, lhs, rhs, relation, _relation_holds(lhs, rhs, relation), context)


def level1_lower_bound(n: int, m: int, alpha: float) -> float:
    """Lower bound 2n(n-1) + (alpha - 2)m on the level-1 social cost."""
    if n < 0 or m < 0:
        raise ValueError("n and m must be non-negative")
    if alpha < 0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    return 2 * n * (n - 1) + (alpha - 2) * m


def _validate_rcs_values(a: Sequence[float], upper: float, strict_upper: bool) -> None:
    if not a:
        raise ValueError("need at least one value")
    if upper <= 0:
        raise ValueError(f"upper bound must be positive, got {upper}")
    for x in a:
        if x <= 0:
            raise ValueError(f"values must be positive, got {x}")
        if strict_upper and x >= upper:
            raise ValueError(f"values must stay strictly below {upper}, got {x}")
        if not strict_upper and x > upper:
            raise ValueError(f"values must not exceed {upper}, got {x}")


def rcs_holds(a: Sequence[float], upper: float, c: float) -> BoundCheck:
    """Reversed-direction bound on a sum of reciprocals.

    Checks sum(1/a_i) <= c * upper^2 * n^2 / sum(a_i) for n values with
    0 < a_i < upper.  Only these hypotheses are enforced; the inequality
    itself can fail, for example when some a_i sits near zero.
    """
    _validate_rcs_values(a, upper, strict_upper=True)
    n = len(a)
    lhs = sum(1.0 / x for x in a)
    rhs = c * upper * upper * n * n / sum(a)
    return make_check(
        "reciprocal-sum-bound", lhs, rhs, "<=", context=f"n={n}, upper={upper}, c={c}"
    )


def rcs_min_constant(a: Sequence[float], upper: float) -> float:
    """Smallest constant making the reciprocal-sum bound hold for these values.

    Computes sum(1/a_i) * sum(a_i) / (upper^2 * n^2).  Values may touch the
    upper bound here, since the expression stays well defined there.
    """
    _validate_rcs_values(a, upper, strict_upper=False)
    n = len(a)
    return sum(1.0 / x for x in a) * sum(a) / (upper * upper * n * n)


def type1_lower_bound(n: int, interconnections: float, beta: float, c: float = 1.0) -> float:
    """Lower bound beta*I - 4c*n^4 / (2n^2 - I) on the type-1 social cost.

    Defined for 0 <= I < 2n^2; the denominator vanishes at the upper end.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if interconnections < 0:
        raise ValueError(f"interconnection count must be non-negative, got {interconnections}")
    if interconnections >= 2 * n * n:
        raise ValueError(
            f"interconnection count {interconnections} outside the bound's domain [0, {2 * n * n})"
        )
    return beta * interconnections - 4.0 * c * n**4 / (2 * n * n - interconnections)


def type1_social_optimum(n: int, beta: float, c: float = 1.0) -> tuple[float, float]:
    """Saddle of the type-1 bound curve: location and value.

    Returns (I_star, cost_star) with I_star = 2n^2 (1 - sqrt(c/beta)) and
    cost_star = 2n^2 (beta - 2 sqrt(c beta)).  Requires 0 < c <= beta.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if c <= 0:
        raise ValueError(f"need c > 0, got {c}")
    if c > beta:
        raise ValueError(f"need c <= beta, got c={c}, beta={beta}")
    ratio = math.sqrt(c / beta)
    i_star = 2 * n * n * (1 - ratio)
    cost_star = 2 * n * n * (beta - 2 * math.sqrt(c * beta))
    return i_star, cost_star


def type1_saddle_grid(n: int, beta: float, c: float = 1.0) -> int:
    """Integer location of the type-1 bound curve's interior extremum.

    The curve I -> beta*I - 4c*n^4/(2n^2 - I) is concave on [0, 2n^2), so
    it has a single stationary point; this scans integer I and returns the
    first grid point attaining the extreme value.
    """
    best_i = 0
    best_v = type1_lower_bound(n, 0, beta, c)
    for i in range(1, 2 * n * n):
        v = type1_lower_bound(n, i, beta, c)
        if v > best_v:
            best_i, best_v = i, v
    return best_i


def type1_poa_upper(beta: float, c: float = 1.0) -> float:
    """Upper bound 1 / (2 - 4 sqrt(c/beta)), valid for 0 < beta <= 1.

    Requires beta > 4c; at or below that the denominator degenerates.
    """
    if not 0 < beta <= 1:
        raise ValueError(f"bound applies for 0 < beta <= 1, got {beta}")
    if beta <= 4 * c:
        raise ValueError(f"degenerate bound: need beta > 4c, got beta={beta}, c={c}")
    return 1.0 / (2.0 - 4.0 * math.sqrt(c / beta))


def type1_poa_lower(gamma: int, n: int, beta: float, c: float = 1.0) -> float:
    """Lower bound gamma / (2n (1 - 2 sqrt(c/beta))), valid for beta > 1.

    gamma is the domination number of the fog graph.  Requires beta > 4c;
    otherwise the denominator degenerates.
    """
    if gamma < 1 or n < 1:
        raise ValueError("need gamma >= 1 and n >= 1")
    if beta <= 1:
        raise ValueError(f"bound applies for beta > 1, got {beta}")
    if beta <= 4 * c:
        raise ValueError(f"degenerate bound: need beta > 4c, got beta={beta}, c={c}")
    return gamma / (2.0 * n * (1.0 - 2.0 * math.sqrt(c / beta)))


def type2_lower_bound(n: int, interconnections: float, beta: float) -> float:
    """Lower bound 2n^2 + (beta - 1) I on the type-2 social cost."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if not 0 <= interconnections <= n * n:
        raise ValueError(
            f"interconnection count {interconnections} outside [0, {n * n}] for n={n}"
        )
    return 2 * n * n + (beta - 1) * interconnections


class Type2PoAVerdict(NamedTuple):
    """Price-of-anarchy statement available at a given beta.

    kind is "exact" (the ratio equals value), "upper" (the ratio is at most
    value), or "uncovered" (no statement for this beta; value is None).
    """

    kind: str
    value: float | None
    threshold: int | None = None


def type2_poa_bound(beta: float) -> Type2PoAVerdict:
    """Type-2 price-of-anarchy statement by beta regime.

    Exact 1 for 0 < beta <= 2; uncovered for 2 < beta <= 3; upper bound
    S/2 + 1 for beta > 3, where S is the integer with S < beta <= S + 1.
    """
    if beta <= 0:
        raise ValueError(f"need beta > 0, got {beta}")
    if beta <= 2:
        return Type2PoAVerdict(kind="exact", value=1.0)
    if beta <= 3:
        return Type2PoAVerdict(kind="uncovered", value=None)
    s = math.ceil(beta) - 1
    return Type2PoAVerdict(kind="upper", value=s / 2 + 1, threshold=s)


def check_bounds_on_instance(state: GameState, cfg: GameConfig) -> list[BoundCheck]:
    """Evaluate every applicable bound against one concrete state.

    Always checks the level-2 social lower bound for the configured cost
    type; in profile mode also the level-1 bound; for TYPE_II with
    beta > 0, in a regime the paper covers, also the price-of-anarchy
    statement, skipped when the joint guard refuses the walk's predicted
    work (equilibrium._check_joint_size) or the price of anarchy is
    undefined (no pure equilibrium, or an optimum not positive and
    finite).  The social costs are costs.cost_report's; an infinite
    measured cost satisfies any lower bound.  Requires matching player
    counts, since the formulas assume a single n: unequal counts are
    refused before any player is priced, and the pricing refuses past
    model.COST_PAIR_GUARD.
    """
    if state.n1 != state.n2:
        raise ValueError(
            f"bound formulas assume n1 == n2, got n1={state.n1}, n2={state.n2}"
        )
    measured = cost_report(state, cfg)
    n = state.n1
    checks: list[BoundCheck] = []

    actual2 = measured.social_level2
    icount = measured.interconnection_count
    if cfg.job_cost_type is JobCostType.TYPE_II:
        rhs = type2_lower_bound(n, icount, cfg.beta)
        checks.append(
            make_check(
                "type2-social-lower-bound",
                actual2,
                rhs,
                ">=",
                context=f"n={n}, I={icount}, beta={cfg.beta}",
            )
        )
    else:
        rhs = type1_lower_bound(n, icount, cfg.beta, cfg.rcs_constant)
        checks.append(
            make_check(
                "type1-social-lower-bound",
                actual2,
                rhs,
                ">=",
                context=f"n={n}, I={icount}, beta={cfg.beta}, c={cfg.rcs_constant}",
            )
        )
        a = [2 * n - len(s) for s in state.level2.strategies]
        checks.append(
            make_check(
                "reciprocal-sum-constant-regime",
                rcs_min_constant(a, 2 * n),
                cfg.rcs_constant,
                "<=",
                context=f"a=(2n-|S_j|) over {len(a)} jobs, upper=2n={2 * n}",
            )
        )

    if state.profile_mode:
        actual1 = measured.social_level1
        g1 = state.g1
        rhs1 = level1_lower_bound(n, g1.edge_count, cfg.alpha)
        checks.append(
            make_check(
                "level1-social-lower-bound",
                actual1,
                rhs1,
                ">=",
                context=f"n={n}, m={g1.edge_count}, alpha={cfg.alpha}",
            )
        )

    if cfg.job_cost_type is JobCostType.TYPE_II and cfg.beta > 0:
        verdict = type2_poa_bound(cfg.beta)
        if verdict.kind != "uncovered":
            try:
                report = empirical_poa(state.g1, state.n2, cfg)
            except (GuardExceeded, NoEquilibriumError, ValueError):
                return checks
            relation = "==" if verdict.kind == "exact" else "<="
            checks.append(
                make_check(
                    "type2-poa-regime",
                    report.poa,
                    verdict.value,
                    relation,
                    context=f"beta={cfg.beta}, ne_count={report.ne_count}",
                )
            )
    return checks
