"""One-pass level-2 scan: differential test against the nested scans it replaced.

The reference functions below are the two profile scans that
social_optimum_level2 (exhaustive_joint), enumerate_nash_level2 and
empirical_poa ran before the cost-table scan: one evaluates the social cost
of every profile, the other solves every job's best response in every
profile by calling job_player_cost on each candidate.  Both go through
model.job_player_cost only, never through the equilibrium module's cost
kernel.  Results must match exactly, including which exception is raised
first.
"""

import itertools
import math
import random

import pytest

from foggame import equilibrium, model
from foggame.equilibrium import (
    JOINT_ENUMERATION_GUARD,
    PoAReport,
    empirical_poa,
    enumerate_nash_level2,
    social_optimum_level2,
)
from foggame.errors import GuardExceeded, NoEquilibriumError
from foggame.graph import Graph, generate
from foggame.model import (
    GameConfig,
    GameState,
    JobCostType,
    Level2Profile,
    TransitPolicy,
    social_cost_level2,
)

# ------------------------------------------------------------------ reference


def _reference_candidates(n1):
    return [
        frozenset(combo)
        for k in range(n1 + 1)
        for combo in itertools.combinations(range(n1), k)
    ]


def _reference_profiles(n1, n2):
    per_job = _reference_candidates(n1) if n2 else []
    for combo in itertools.product(per_job, repeat=n2):
        yield Level2Profile(n1, combo)


def _reference_guard(n1, n2, joint_guard):
    # Predicted work: 2^(n1*n2) profile visits plus C(2^n1 + n2 - 2, n2 - 1)
    # cost tables of 2^n1 entries.  Past the budget's bit length the profile
    # visits alone exceed it, and the refusal names that power of two.
    if n2 < 0:
        raise ValueError(f"n2 must be non-negative, got {n2}")
    bits = joint_guard.bit_length()
    if n1 * n2 > bits:
        raise GuardExceeded("joint profile enumeration", joint_guard, 2**bits, at_least=True)
    work = 2 ** (n1 * n2)
    if n2:
        work += math.comb(2**n1 + n2 - 2, n2 - 1) * 2**n1
    if work > joint_guard:
        raise GuardExceeded("joint profile enumeration", joint_guard, work)


def _reference_best_cost(j, state, cfg):
    return min(
        model.job_player_cost(j, state.with_level2_strategy(j, cand), cfg)
        for cand in _reference_candidates(state.n1)
    )


def reference_social_optimum(g1, n2, cfg, joint_guard=JOINT_ENUMERATION_GUARD):
    _reference_guard(g1.n, n2, joint_guard)
    best_cost = 0.0
    best_profile = None
    for profile in _reference_profiles(g1.n, n2):
        cost = social_cost_level2(GameState(g1, profile, allow_unequal=True), cfg)
        if best_profile is None or cost < best_cost:
            best_cost, best_profile = cost, profile
    return best_cost, best_profile


def reference_enumerate_nash(g1, n2, cfg, joint_guard=JOINT_ENUMERATION_GUARD):
    _reference_guard(g1.n, n2, joint_guard)
    found = []
    for profile in _reference_profiles(g1.n, n2):
        state = GameState(g1, profile, allow_unequal=True)
        stable = not any(
            _reference_best_cost(j, state, cfg) < model.job_player_cost(j, state, cfg)
            for j in range(n2)
        )
        if stable:
            found.append((profile, social_cost_level2(state, cfg)))
    return found


def reference_poa(g1, n2, cfg, joint_guard=JOINT_ENUMERATION_GUARD):
    optimum_cost, optimum_profile = reference_social_optimum(g1, n2, cfg, joint_guard)
    equilibria = reference_enumerate_nash(g1, n2, cfg, joint_guard)
    if not equilibria:
        raise NoEquilibriumError(f"no pure level-2 equilibrium (n1={g1.n}, n2={n2})")
    worst_profile, worst_cost = equilibria[0]
    for profile, cost in equilibria[1:]:
        if cost > worst_cost:
            worst_profile, worst_cost = profile, cost
    if optimum_cost <= 0:
        raise ValueError(
            f"price of anarchy undefined for non-positive optimum cost {optimum_cost}"
        )
    return PoAReport(
        optimum_cost=optimum_cost,
        optimum_profile=optimum_profile,
        worst_ne_cost=worst_cost,
        worst_ne_profile=worst_profile,
        poa=worst_cost / optimum_cost,
        ne_count=len(equilibria),
    )


# ------------------------------------------------------------------- harness


def _outcome(fn, *args):
    """Result with its repr (so 0 and 0.0 differ), or the exception raised."""
    try:
        result = fn(*args)
    except (ValueError, GuardExceeded, NoEquilibriumError) as exc:
        return type(exc), str(exc)
    return result, repr(result)


def _assert_same(g1, n2, cfg):
    pairs = (
        (reference_social_optimum, social_optimum_level2),
        (reference_enumerate_nash, enumerate_nash_level2),
        (reference_poa, empirical_poa),
    )
    for reference, fast in pairs:
        assert _outcome(fast, g1, n2, cfg) == _outcome(reference, g1, n2, cfg), (
            fast.__name__,
            g1,
            n2,
            cfg,
        )


def _random_instance(rng):
    n1 = rng.randint(1, 4)
    n2 = rng.randint(0, 9 // n1)
    kind = rng.choice(("path", "cycle", "star", "complete", "erdos_renyi"))
    if kind == "erdos_renyi":
        g1 = generate(kind, n1, p=rng.choice((0.3, 0.6)), seed=rng.randrange(10**6))
    else:
        g1 = generate(kind, n1)
    cfg = GameConfig(
        beta=rng.choice((0.1, 0.5, 1.0, 1.5, 2.5, 3.5, 5.0, round(rng.uniform(0, 4), 3))),
        job_cost_type=rng.choice(tuple(JobCostType)),
        transit_policy=rng.choice(tuple(TransitPolicy)),
    )
    return g1, n2, cfg


# ---------------------------------------------------------------------- tests


def test_scan_matches_reference_on_random_instances():
    rng = random.Random(2024)
    for _ in range(60):
        _assert_same(*_random_instance(rng))


@pytest.mark.parametrize("transit", tuple(TransitPolicy))
@pytest.mark.parametrize("cost_type", tuple(JobCostType))
@pytest.mark.parametrize(
    "g1, n2",
    [
        (generate("path", 3), 3),
        (generate("star", 4), 2),
        (generate("complete", 2), 4),
        (Graph(1, frozenset()), 9),
        (generate("path", 6), 1),
        (generate("cycle", 3), 0),
        (Graph(3, frozenset()), 2),
    ],
    ids=["path3x3", "star4x2", "complete2x4", "single9", "path6x1", "cycle3x0", "empty3x2"],
)
def test_scan_matches_reference_on_named_shapes(g1, n2, cost_type, transit):
    _assert_same(g1, n2, GameConfig(beta=1.5, job_cost_type=cost_type, transit_policy=transit))


def test_scan_matches_reference_on_non_positive_optimum():
    g1 = Graph(1, frozenset())
    cfg = GameConfig(beta=1.0, job_cost_type=JobCostType.TYPE_I)
    with pytest.raises(ValueError, match="non-positive optimum"):
        empirical_poa(g1, 1, cfg)
    _assert_same(g1, 1, cfg)
    with pytest.raises(ValueError, match="non-positive optimum"):
        empirical_poa(generate("path", 3), 0, GameConfig())
    _assert_same(generate("path", 3), 0, GameConfig())


def test_scan_matches_reference_on_guard():
    # 2^20 profiles alone pass the budget of 2^16 steps.
    _assert_same(generate("complete", 5), 4, GameConfig())
    # 2^16 profiles + 816 tables of 16 = 78,592 steps.
    _assert_same(generate("path", 4), 4, GameConfig())
    # 2^16 profiles + 1 table of 2^16 = 131,072 steps.
    _assert_same(generate("path", 16), 1, GameConfig())
    # Without jobs one empty profile is the whole scan, at any n1.
    _assert_same(generate("path", 30), 0, GameConfig())
    with pytest.raises(GuardExceeded, match=r"size at least 131072 > limit 65536"):
        empirical_poa(generate("complete", 5), 4, GameConfig())
    with pytest.raises(GuardExceeded, match=r"size 78592 > limit 65536"):
        empirical_poa(generate("path", 4), 4, GameConfig())


@pytest.mark.parametrize(
    "n1, n2, work",
    [(6, 2, 8192), (2, 7, 16720), (13, 1, 16384), (15, 1, 65536)],
)
def test_joint_guard_admits_predicted_work_within_budget(n1, n2, work):
    # 6x2 is the largest shape the former n1*n2 <= 12 guard accepted.
    assert equilibrium._joint_work(n1, n2) == work
    report = empirical_poa(generate("path", n1), n2, GameConfig(beta=1.5))
    assert report.ne_count >= 1


# Rock-paper-scissors over the first three strategies of a one-fog,
# two-job game, shifted below zero: a symmetric job cost with no pure
# equilibrium and a negative optimum.  No real instance without an
# equilibrium turned up in thousands of random small ones, so the cost is
# substituted to reach the NoEquilibriumError outcome.
_RPS_STRATEGIES = (frozenset(), frozenset({0}), frozenset({1}))


def _rps_cost(j, state, cfg):
    own = state.level2.strategies[j]
    other = state.level2.strategies[1 - j]
    if own not in _RPS_STRATEGIES:
        return 10.0
    if other not in _RPS_STRATEGIES:
        return -5.0
    a, b = _RPS_STRATEGIES.index(own), _RPS_STRATEGIES.index(other)
    return (-3.0, -4.0, -2.0)[(a - b) % 3]


def _rps_table(g1, rest, cfg):
    return tuple(
        _rps_cost(0, GameState(g1, Level2Profile(g1.n, (c,) + rest), allow_unequal=True), cfg)
        for c in _reference_candidates(g1.n)
    )


def test_scan_matches_reference_without_equilibrium(monkeypatch):
    # The reference prices jobs through job_player_cost, the scan through
    # the cost tables; both get the same substituted cost.
    monkeypatch.setattr(model, "job_player_cost", _rps_cost)
    monkeypatch.setattr(equilibrium, "_job_cost_table", _rps_table)
    g1 = generate("path", 2)
    with pytest.raises(NoEquilibriumError):
        empirical_poa(g1, 2, GameConfig())
    assert enumerate_nash_level2(g1, 2, GameConfig()) == []
    _assert_same(g1, 2, GameConfig())


@pytest.mark.parametrize(
    "n1, n2, beta, transit, fills",
    [
        (4, 3, 3.5, TransitPolicy.FULL_COMBINED, 136),
        (8, 1, 1.5, TransitPolicy.FULL_COMBINED, 1),
        (4, 3, 3.5, TransitPolicy.FOG_ONLY, 1),
    ],
)
def test_empirical_poa_cost_table_fills(monkeypatch, n1, n2, beta, transit, fills):
    # One cost table of 2^n1 entries per multiset of the other n2 - 1
    # jobs' strategies, C(2^n1 + n2 - 2, n2 - 1) table fills; under
    # FOG_ONLY a job's cost ignores the other jobs and one table serves all.
    calls = 0
    original = equilibrium._job_cost_table

    def counted(*args):
        nonlocal calls
        calls += 1
        return original(*args)

    monkeypatch.setattr(equilibrium, "_job_cost_table", counted)
    empirical_poa(generate("path", n1), n2, GameConfig(beta=beta, transit_policy=transit))
    assert calls == fills
    if transit is TransitPolicy.FULL_COMBINED:
        assert fills == math.comb(2**n1 + n2 - 2, n2 - 1)


@pytest.mark.parametrize(
    "transit, sorts", [(TransitPolicy.FULL_COMBINED, 64), (TransitPolicy.FOG_ONLY, 0)]
)
def test_scan_sorts_each_profile_at_most_once(monkeypatch, transit, sorts):
    # Table keys come from one sort of the profile, not one per job: path 2
    # with 3 jobs has 4^3 = 64 profiles.  Under FOG_ONLY every key is ().
    calls = 0

    def counted(values):
        nonlocal calls
        calls += 1
        return sorted(values)

    monkeypatch.setattr(equilibrium, "sorted", counted, raising=False)
    enumerate_nash_level2(generate("path", 2), 3, GameConfig(transit_policy=transit))
    assert calls == sorts


def test_scan_of_many_jobs_without_fog_vertices():
    # One profile of 9,000 empty strategies, predicted at 2 steps; its keys
    # are built from one sort instead of one per job.
    (profile, cost), = enumerate_nash_level2(Graph(0, frozenset()), 9000, GameConfig())
    assert profile.strategies == (frozenset(),) * 9000
    assert cost == 0
