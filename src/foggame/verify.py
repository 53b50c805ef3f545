"""Built-in verification battery.

Each check runs a fixed seeded experiment and compares engine output
against an independent oracle or a closed-form value.  The battery backs
the command line's verify mode; results carry no timing or other
run-varying data, so repeated runs produce identical payloads.

A check declares its name once, in its decorator.  A sampled check yields
one case per comparison and one tally reports how many held, with the
first failure.  Tolerance comparisons use the bounds module's rule.
"""

from __future__ import annotations

import itertools
import random
from functools import wraps
from typing import Callable, Iterator, NamedTuple

from .bounds import (
    _relation_holds,
    level1_lower_bound,
    rcs_min_constant,
    type1_lower_bound,
    type1_saddle_grid,
    type1_social_optimum,
    type2_lower_bound,
    type2_poa_bound,
)
from .domination import (
    construct_complete_bipartite,
    domination_diagnostic,
    is_dominating_set,
    min_dominating_set,
)
from .equilibrium import (
    DynamicsOutcome,
    Scope,
    best_response_dynamics,
    empirical_poa,
    is_nash,
)
from .generators import generate
from .graph import Graph, is_connected
from .model import (
    GameConfig,
    GameState,
    JobCostType,
    Level1Profile,
    Level2Profile,
    build_level1_graph,
    interconnection_count,
    social_cost_level1,
    social_cost_level2,
)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    details: str


_Case = tuple[bool, Callable[[], str]]


def _tally(phrase: str, cases: Iterator[_Case]) -> tuple[bool, str]:
    """Count the cases that hold; a case's note is built only for the first failure."""
    held = total = 0
    first_failure = ""
    for holds, note in cases:
        total += 1
        if holds:
            held += 1
        elif not first_failure:
            first_failure = f"; first failure at {note()}"
    return held == total, f"{held}/{total} {phrase}{first_failure}"


def _check(name: str, phrase: str | None = None) -> Callable[..., Callable[[], CheckResult]]:
    """Declare a check under name: its body returns (passed, details), or,
    given a phrase, yields (holds, note) cases for _tally."""

    def declare(body: Callable[[], object]) -> Callable[[], CheckResult]:
        @wraps(body)
        def check() -> CheckResult:
            return CheckResult(name, *(body() if phrase is None else _tally(phrase, body())))

        check.check_name = name
        return check

    return declare


def _brute_force_min_dominating(g: Graph) -> int:
    """Independent oracle: scan all 2^n subsets through is_dominating_set."""
    best = g.n
    for bits in range(1 << g.n):
        members = [v for v in range(g.n) if bits >> v & 1]
        if len(members) < best and is_dominating_set(g, members):
            best = len(members)
    return best


def _connected_sample(n: int, p: float, seed: int) -> Graph:
    return generate("erdos_renyi", n, p=p, seed=seed, require_connected=True)


@_check("dominating-set-exact-vs-bruteforce", "graphs agree")
def check_dominating_set_oracle() -> Iterator[_Case]:
    """Exact solver against brute force on 50 seeded connected graphs."""
    for i in range(50):
        n = 4 + i % 7
        g = _connected_sample(n, 0.5, 1000 + i)
        solved = min_dominating_set(g)
        agrees = len(solved) == _brute_force_min_dominating(g) and is_dominating_set(g, solved)
        yield agrees, lambda: f"seed {1000 + i} (n={n})"


@_check("poa-exact-low-beta-complete3")
def check_poa_exact_low_beta() -> tuple[bool, str]:
    """Complete fog triangle at beta=0.5: ratio 1, known stable profile, optimum 13.5."""
    g = generate("complete", 3)
    cfg = GameConfig(beta=0.5, job_cost_type=JobCostType.TYPE_II)
    report = empirical_poa(g, 3, cfg)
    bipartite = construct_complete_bipartite(3, 3)
    stable, _ = is_nash(GameState(g, bipartite), cfg, Scope.LEVEL2)
    passed = _relation_holds(report.poa, 1.0, "==") and report.optimum_cost == 13.5 and stable
    return passed, (
        f"poa={report.poa}, optimum={report.optimum_cost}, "
        f"complete-bipartite stable={stable}, ne_count={report.ne_count}"
    )


@_check(
    "mds-best-response-structure",
    "best responses are minimum dominating sets at the closed-form cost",
)
def check_mds_best_response_structure() -> Iterator[_Case]:
    """Lone-job best response at beta=1.5 on 30 seeded connected graphs."""
    cfg = GameConfig(beta=1.5, job_cost_type=JobCostType.TYPE_II)
    for i in range(30):
        n = 3 + i % 8
        g = _connected_sample(n, 0.5, 2000 + i)
        diag = domination_diagnostic(g, cfg)
        expected_cost = 2 * n + (cfg.beta - 1) * diag.min_dominating_size
        holds = diag.consistent and _relation_holds(diag.cost, expected_cost, "==")
        yield holds, lambda: (
            f"seed {2000 + i} (n={n}, strategy={sorted(diag.strategy)}, "
            f"cost={diag.cost}, expected={expected_cost})"
        )


@_check("poa-bound-midrange-beta")
def check_poa_bound_midrange_beta() -> tuple[bool, str]:
    """Empirical ratio against the S/2+1 bound at beta=3.5 on three graphs."""
    cfg = GameConfig(beta=3.5, job_cost_type=JobCostType.TYPE_II)
    verdict = type2_poa_bound(cfg.beta)
    assert verdict.kind == "upper" and verdict.value is not None
    kinds = ("path", "complete", "star")
    reports = {kind: empirical_poa(generate(kind, 3), 3, cfg) for kind in kinds}
    passed = all(_relation_holds(r.poa, verdict.value, "<=") for r in reports.values())
    listed = ", ".join(f"{kind}3 poa={r.poa}" for kind, r in reports.items())
    return passed, f"bound={verdict.value}; {listed}"


def _random_level2_profile(n1: int, n2: int, rng: random.Random) -> Level2Profile:
    return Level2Profile(
        n1, tuple(frozenset(v for v in range(n1) if rng.random() < 0.5) for _ in range(n2))
    )


@_check("type2-social-lower-bound-property", "profiles satisfy the bound")
def check_type2_lower_bound_property() -> Iterator[_Case]:
    """2n^2 + (beta-1)I against 200 seeded profiles per instance and beta.

    A profile is redrawn until every job buys a link, so each social cost
    is finite and the bound is tested, not met trivially.
    """
    instances = [generate("path", 3), generate("cycle", 4), generate("complete", 3)]
    for gi, g in enumerate(instances):
        n = g.n
        for bi, beta in enumerate((0.5, 1.5, 3.5)):
            cfg = GameConfig(beta=beta, job_cost_type=JobCostType.TYPE_II)
            rng = random.Random(3000 + 10 * gi + bi)
            for _ in range(200):
                profile = _random_level2_profile(n, n, rng)
                while not all(profile.strategies):  # an empty one meets any bound at inf
                    profile = _random_level2_profile(n, n, rng)
                actual = social_cost_level2(GameState(g, profile), cfg)
                bound = type2_lower_bound(n, interconnection_count(profile), beta)
                yield _relation_holds(actual, bound, ">="), lambda: f"instance {gi}, beta={beta}"


def _random_connected_level1(n1: int, rng: random.Random) -> Level1Profile:
    for _ in range(1000):
        strategies = tuple(
            frozenset(v for v in range(n1) if v != i and rng.random() < 0.45)
            for i in range(n1)
        )
        profile = Level1Profile(strategies)
        if is_connected(build_level1_graph(profile)):
            return profile
    raise AssertionError("no connected profile after 1000 draws")


@_check("level1-social-lower-bound-property", "profile/alpha pairs satisfy the bound")
def check_level1_lower_bound_property() -> Iterator[_Case]:
    """2n(n-1) + (alpha-2)m against 100 seeded connected purchase profiles."""
    for i in range(100):
        n1 = 3 + i % 3
        profile = _random_connected_level1(n1, random.Random(4000 + i))
        state = GameState(profile, Level2Profile(n1, (frozenset(),) * n1))
        for alpha in (1.0, 3.0):
            cfg = GameConfig(alpha=alpha, job_cost_type=JobCostType.TYPE_II)
            actual = social_cost_level1(state, cfg)
            bound = level1_lower_bound(n1, state.g1.edge_count, alpha)
            yield _relation_holds(actual, bound, ">="), lambda: f"seed {4000 + i}, alpha={alpha}"


@_check("rcs-constant-application-regime")
def check_rcs_constant_regime() -> tuple[bool, str]:
    """Constant at most 1 for every value multiset of the form 2n - |S_j|."""
    constants = [
        (n, sizes, rcs_min_constant([2 * n - s for s in sizes], 2 * n))
        for n in range(1, 9)
        for sizes in itertools.combinations_with_replacement(range(n + 1), n)
    ]
    passed, details = _tally(
        "multisets stay at or below 1",
        (
            (_relation_holds(c_min, 1, "<="), lambda: f"n={n}, sizes={sizes} (constant {c_min})")
            for n, sizes, c_min in constants
        ),
    )
    return passed, f"{details}; largest constant {max(c for *_, c in constants)}"


@_check("type1-saddle-grid-consistency", "parameter points consistent")
def check_type1_saddle_consistency() -> Iterator[_Case]:
    """Grid extremum within one step of I_star; value matches cost_star."""
    for n in range(1, 5):
        for beta in (1.0, 4.0):
            for c in (1 / 16, 1 / 64):
                i_star, cost_star = type1_social_optimum(n, beta, c)
                grid = type1_saddle_grid(n, beta, c)
                value = type1_lower_bound(n, i_star, beta, c)
                holds = _relation_holds(abs(grid - i_star), 1, "<=") and _relation_holds(
                    value, cost_star, "=="
                )
                yield holds, lambda: f"n={n}, beta={beta}, c={c} (grid={grid}, I_star={i_star})"


@_check(
    "dynamics-termination-and-stability",
    "runs converge to a verified equilibrium with strict improvements",
)
def check_dynamics_soundness() -> Iterator[_Case]:
    """Exact round-robin dynamics on stars and paths from 20 seeded starts."""
    cfg = GameConfig(beta=1.5, job_cost_type=JobCostType.TYPE_II)
    for i in range(20):
        kind = "star" if i % 2 == 0 else "path"
        n = 3 + i % 3
        start = GameState(generate(kind, n), _random_level2_profile(n, n, random.Random(5000 + i)))
        trace = best_response_dynamics(start, cfg, Scope.LEVEL2, max_rounds=50)
        stable, _ = is_nash(trace.final_state, cfg, Scope.LEVEL2)
        strict = all(m.cost_after < m.cost_before for m in trace.moves)
        holds = trace.outcome is DynamicsOutcome.CONVERGED and stable and strict
        yield holds, lambda: f"seed {5000 + i} ({kind}, n={n}, outcome={trace.outcome.value})"


@_check("non-dominating-best-response-flagged")
def check_non_dominating_br_flag() -> tuple[bool, str]:
    """Very large beta on a 5-path: best response is a flagged non-dominating singleton."""
    g = generate("path", 5)
    cfg = GameConfig(beta=100.0, job_cost_type=JobCostType.TYPE_II)
    diag = domination_diagnostic(g, cfg)
    expected_strategy = diag.strategy == frozenset({2}) and diag.strategy_size == 1
    flagged = not diag.is_dominating and not diag.beta_in_supported_range
    return expected_strategy and flagged and diag.cost == 111.0, (
        f"strategy={sorted(diag.strategy)}, cost={diag.cost}, "
        f"dominating={diag.is_dominating}, beta_in_supported_range="
        f"{diag.beta_in_supported_range}"
    )


ALL_CHECKS = (
    check_dominating_set_oracle,
    check_poa_exact_low_beta,
    check_mds_best_response_structure,
    check_poa_bound_midrange_beta,
    check_type2_lower_bound_property,
    check_level1_lower_bound_property,
    check_rcs_constant_regime,
    check_type1_saddle_consistency,
    check_dynamics_soundness,
    check_non_dominating_br_flag,
)


def run_all() -> list[CheckResult]:
    """Run the full battery; a crashed check fails under its declared name."""
    results: list[CheckResult] = []
    for check in ALL_CHECKS:
        try:
            results.append(check())
        except Exception as exc:  # a crashed check should report, not abort
            results.append(
                CheckResult(check.check_name, False, f"raised {type(exc).__name__}: {exc}")
            )
    return results
