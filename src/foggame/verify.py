"""Built-in verification battery.

Each check runs a fixed seeded experiment and compares engine output
against an independent oracle or a closed-form value.  The battery backs
the command line's verify mode; results carry no timing or other
run-varying data, so repeated runs produce identical payloads.
"""

from __future__ import annotations

import itertools
import random
from typing import NamedTuple

from .bounds import (
    EQUALITY_TOLERANCE,
    INEQUALITY_SLACK,
    level1_lower_bound,
    rcs_min_constant,
    type1_lower_bound,
    type1_saddle_grid,
    type1_social_optimum,
    type2_lower_bound,
    type2_poa_bound,
)
from .costs import interconnection_count
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
    social_cost_level1,
    social_cost_level2,
)


class CheckResult(NamedTuple):
    name: str
    passed: bool
    details: str


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


def check_dominating_set_oracle() -> CheckResult:
    """Exact solver against brute force on 50 seeded connected graphs."""
    agreements = 0
    first_failure = ""
    for i in range(50):
        n = 4 + i % 7
        g = _connected_sample(n, 0.5, 1000 + i)
        solved = min_dominating_set(g)
        oracle_size = _brute_force_min_dominating(g)
        if len(solved) == oracle_size and is_dominating_set(g, solved):
            agreements += 1
        elif not first_failure:
            first_failure = f"; first failure at seed {1000 + i} (n={n})"
    return CheckResult(
        name="dominating-set-exact-vs-bruteforce",
        passed=agreements == 50,
        details=f"{agreements}/50 graphs agree{first_failure}",
    )


def check_poa_exact_low_beta() -> CheckResult:
    """Complete fog triangle at beta=0.5: ratio 1, known stable profile, optimum 13.5."""
    g = generate("complete", 3)
    cfg = GameConfig(beta=0.5, job_cost_type=JobCostType.TYPE_II)
    report = empirical_poa(g, 3, cfg)
    bipartite = construct_complete_bipartite(3, 3)
    stable, _ = is_nash(GameState(g, bipartite), cfg, Scope.LEVEL2)
    ratio_ok = abs(report.poa - 1.0) <= EQUALITY_TOLERANCE
    optimum_ok = report.optimum_cost == 13.5
    passed = ratio_ok and optimum_ok and stable
    return CheckResult(
        name="poa-exact-low-beta-complete3",
        passed=passed,
        details=(
            f"poa={report.poa}, optimum={report.optimum_cost}, "
            f"complete-bipartite stable={stable}, ne_count={report.ne_count}"
        ),
    )


def check_mds_best_response_structure() -> CheckResult:
    """Lone-job best response at beta=1.5 on 30 seeded connected graphs."""
    cfg = GameConfig(beta=1.5, job_cost_type=JobCostType.TYPE_II)
    hits = 0
    first_failure = ""
    for i in range(30):
        n = 3 + i % 8
        g = _connected_sample(n, 0.5, 2000 + i)
        diag = domination_diagnostic(g, cfg)
        expected_cost = 2 * n + (cfg.beta - 1) * diag.min_dominating_size
        if diag.consistent and abs(diag.cost - expected_cost) <= EQUALITY_TOLERANCE:
            hits += 1
        elif not first_failure:
            first_failure = (
                f"; first failure at seed {2000 + i} (n={n}, strategy={sorted(diag.strategy)}, "
                f"cost={diag.cost}, expected={expected_cost})"
            )
    return CheckResult(
        name="mds-best-response-structure",
        passed=hits == 30,
        details=f"{hits}/30 best responses are minimum dominating sets at the "
        f"closed-form cost{first_failure}",
    )


def check_poa_bound_midrange_beta() -> CheckResult:
    """Empirical ratio against the S/2+1 bound at beta=3.5 on three graphs."""
    cfg = GameConfig(beta=3.5, job_cost_type=JobCostType.TYPE_II)
    verdict = type2_poa_bound(cfg.beta)
    assert verdict.kind == "upper" and verdict.value is not None
    results = []
    passed = True
    for kind in ("path", "complete", "star"):
        g = generate(kind, 3)
        report = empirical_poa(g, 3, cfg)
        ok = report.poa <= verdict.value + INEQUALITY_SLACK
        passed = passed and ok
        results.append(f"{kind}3 poa={report.poa}")
    return CheckResult(
        name="poa-bound-midrange-beta",
        passed=passed,
        details=f"bound={verdict.value}; " + ", ".join(results),
    )


def _random_level2_profile(n1: int, n2: int, rng: random.Random) -> Level2Profile:
    return Level2Profile(
        n1, tuple(frozenset(v for v in range(n1) if rng.random() < 0.5) for _ in range(n2))
    )


def check_type2_lower_bound_property() -> CheckResult:
    """2n^2 + (beta-1)I against 200 seeded profiles per instance and beta."""
    instances = [generate("path", 3), generate("cycle", 4), generate("complete", 3)]
    betas = (0.5, 1.5, 3.5)
    total = 0
    held = 0
    first_failure = ""
    for gi, g in enumerate(instances):
        n = g.n
        for bi, beta in enumerate(betas):
            cfg = GameConfig(beta=beta, job_cost_type=JobCostType.TYPE_II)
            rng = random.Random(3000 + 10 * gi + bi)
            for _ in range(200):
                profile = _random_level2_profile(n, n, rng)
                state = GameState(g, profile)
                actual = social_cost_level2(state, cfg)
                bound = type2_lower_bound(n, interconnection_count(profile), beta)
                total += 1
                if actual >= bound - INEQUALITY_SLACK:
                    held += 1
                elif not first_failure:
                    first_failure = f"; first failure: instance {gi}, beta={beta}"
    return CheckResult(
        name="type2-social-lower-bound-property",
        passed=held == total,
        details=f"{held}/{total} profiles satisfy the bound{first_failure}",
    )


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


def check_level1_lower_bound_property() -> CheckResult:
    """2n(n-1) + (alpha-2)m against 100 seeded connected purchase profiles."""
    total = 0
    held = 0
    first_failure = ""
    for i in range(100):
        n1 = 3 + i % 3
        rng = random.Random(4000 + i)
        profile = _random_connected_level1(n1, rng)
        level2 = Level2Profile(n1, (frozenset(),) * n1)
        for alpha in (1.0, 3.0):
            cfg = GameConfig(alpha=alpha, job_cost_type=JobCostType.TYPE_II)
            state = GameState(profile, level2)
            actual = social_cost_level1(state, cfg)
            bound = level1_lower_bound(n1, state.g1.edge_count, alpha)
            total += 1
            if actual >= bound - INEQUALITY_SLACK:
                held += 1
            elif not first_failure:
                first_failure = f"; first failure at seed {4000 + i}, alpha={alpha}"
    return CheckResult(
        name="level1-social-lower-bound-property",
        passed=held == total,
        details=f"{held}/{total} profile/alpha pairs satisfy the bound{first_failure}",
    )


def check_rcs_constant_regime() -> CheckResult:
    """Constant at most 1 for every value multiset of the form 2n - |S_j|."""
    total = 0
    ok = 0
    worst = 0.0
    for n in range(1, 9):
        for sizes in itertools.combinations_with_replacement(range(n + 1), n):
            a = [2 * n - s for s in sizes]
            c_min = rcs_min_constant(a, 2 * n)
            total += 1
            worst = max(worst, c_min)
            if c_min <= 1 + INEQUALITY_SLACK:
                ok += 1
    return CheckResult(
        name="rcs-constant-application-regime",
        passed=ok == total,
        details=f"{ok}/{total} multisets stay at or below 1; largest constant {worst}",
    )


def check_type1_saddle_consistency() -> CheckResult:
    """Grid extremum within one step of I_star; value matches cost_star."""
    total = 0
    ok = 0
    first_failure = ""
    for n in range(1, 5):
        for beta in (1.0, 4.0):
            for c in (1 / 16, 1 / 64):
                i_star, cost_star = type1_social_optimum(n, beta, c)
                grid = type1_saddle_grid(n, beta, c)
                location_ok = abs(grid - i_star) <= 1 + EQUALITY_TOLERANCE
                value_ok = (
                    abs(type1_lower_bound(n, i_star, beta, c) - cost_star) <= EQUALITY_TOLERANCE
                )
                total += 1
                if location_ok and value_ok:
                    ok += 1
                elif not first_failure:
                    first_failure = (
                        f"; first failure at n={n}, beta={beta}, c={c} "
                        f"(grid={grid}, I_star={i_star})"
                    )
    return CheckResult(
        name="type1-saddle-grid-consistency",
        passed=ok == total,
        details=f"{ok}/{total} parameter points consistent{first_failure}",
    )


def check_dynamics_soundness() -> CheckResult:
    """Exact round-robin dynamics on stars and paths from 20 seeded starts."""
    cfg = GameConfig(beta=1.5, job_cost_type=JobCostType.TYPE_II)
    sound = 0
    first_failure = ""
    for i in range(20):
        kind = "star" if i % 2 == 0 else "path"
        n = 3 + i % 3
        g = generate(kind, n)
        rng = random.Random(5000 + i)
        start = GameState(g, _random_level2_profile(n, n, rng))
        trace = best_response_dynamics(start, cfg, Scope.LEVEL2, max_rounds=50)
        stable, _ = is_nash(trace.final_state, cfg, Scope.LEVEL2)
        strict = all(m.cost_after < m.cost_before for m in trace.moves)
        if trace.outcome is DynamicsOutcome.CONVERGED and stable and strict:
            sound += 1
        elif not first_failure:
            first_failure = (
                f"; first failure at seed {5000 + i} ({kind}, n={n}, "
                f"outcome={trace.outcome.value})"
            )
    return CheckResult(
        name="dynamics-termination-and-stability",
        passed=sound == 20,
        details=f"{sound}/20 runs converge to a verified equilibrium with strict "
        f"improvements{first_failure}",
    )


def check_non_dominating_br_flag() -> CheckResult:
    """Very large beta on a 5-path: best response is a flagged non-dominating singleton."""
    g = generate("path", 5)
    cfg = GameConfig(beta=100.0, job_cost_type=JobCostType.TYPE_II)
    diag = domination_diagnostic(g, cfg)
    expected_strategy = diag.strategy == frozenset({2})
    flagged = not diag.is_dominating and not diag.beta_in_supported_range
    singleton = diag.strategy_size == 1
    passed = expected_strategy and flagged and singleton and diag.cost == 111.0
    return CheckResult(
        name="non-dominating-best-response-flagged",
        passed=passed,
        details=(
            f"strategy={sorted(diag.strategy)}, cost={diag.cost}, "
            f"dominating={diag.is_dominating}, beta_in_supported_range="
            f"{diag.beta_in_supported_range}"
        ),
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
    """Run the full battery, capturing unexpected errors as failures."""
    results: list[CheckResult] = []
    for check in ALL_CHECKS:
        try:
            results.append(check())
        except Exception as exc:  # a crashed check should report, not abort
            results.append(
                CheckResult(
                    name=check.__name__.removeprefix("check_").replace("_", "-"),
                    passed=False,
                    details=f"raised {type(exc).__name__}: {exc}",
                )
            )
    return results
