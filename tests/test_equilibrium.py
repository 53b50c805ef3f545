"""Best responses, equilibrium checks, dynamics, and price of anarchy."""

import itertools
import random

import pytest

from foggame import equilibrium as eq
from foggame import model, oracles
from foggame.equilibrium import (
    DynamicsOutcome,
    Scope,
    best_response_fog_exact,
    best_response_job_exact,
    best_response_job_greedy,
    best_response_dynamics,
    empirical_poa,
    enumerate_nash_level2,
    is_nash,
    social_optimum_level2,
)
from foggame.domination import (
    construct_complete_bipartite,
    domination_diagnostic,
    is_dominating_set,
)
from foggame.errors import GuardExceeded, PolicyError
from foggame.generators import generate
from foggame.graph import INF, Graph, new_graph
from foggame.kernel import job_rows
from foggame.model import (
    GameConfig,
    GameState,
    JobCostType,
    Level1Profile,
    Level2Profile,
    TransitPolicy,
    edge_fog_player_cost,
    job_player_cost,
)


def _fixed(g1, strategies):
    return GameState(g1, Level2Profile(g1.n, tuple(map(frozenset, strategies))), allow_unequal=True)


def _empty_jobs(n1, n2):
    return Level2Profile(n1, tuple(frozenset() for _ in range(n2)))


def _subsets_in_order(n):
    for size in range(n + 1):
        for combo in itertools.combinations(range(n), size):
            yield frozenset(combo)


# -------------------------------------------------------------- best response


def test_job_best_response_path3():
    st = GameState(generate("path", 3), _empty_jobs(3, 3))
    strategy, cost = best_response_job_exact(0, st, GameConfig(beta=1.5))
    assert strategy == frozenset({1})
    assert cost == 6.5


def test_job_best_response_huge_beta_buys_one_link():
    st = GameState(generate("path", 5), _empty_jobs(5, 5))
    strategy, cost = best_response_job_exact(0, st, GameConfig(beta=100.0))
    assert strategy == frozenset({2})
    assert cost == 111.0


def test_job_best_response_type1():
    st = _fixed(generate("complete", 2), [set()])
    cfg = GameConfig(beta=1.0, job_cost_type=JobCostType.TYPE_I)
    strategy, cost = best_response_job_exact(0, st, cfg)
    assert strategy == frozenset({0})
    assert cost == pytest.approx(1.0 - 1.0 / 3.0)


def test_job_best_response_tie_prefers_smaller_then_lex():
    # K2 with beta=1: {0}, {1} and {0,1} all cost 4, so {0} must win
    st = _fixed(generate("complete", 2), [set()])
    strategy, cost = best_response_job_exact(0, st, GameConfig(beta=1.0))
    assert strategy == frozenset({0})
    assert cost == 4.0


def test_job_best_response_matches_direct_enumeration():
    rng = random.Random(660)
    for _ in range(25):
        g1 = generate("erdos_renyi", rng.randint(1, 5), p=0.5, seed=rng.randint(0, 10**6))
        n2 = rng.randint(1, 2)
        strategies = [
            {v for v in range(g1.n) if rng.random() < 0.4} for _ in range(n2)
        ]
        cfg = GameConfig(
            beta=rng.choice([0.5, 1.0, 2.5]),
            job_cost_type=rng.choice([JobCostType.TYPE_I, JobCostType.TYPE_II]),
        )
        j = rng.randrange(n2)
        st = _fixed(g1, strategies)
        got_set, got_cost = best_response_job_exact(j, st, cfg)
        best = None
        for cand in _subsets_in_order(g1.n):
            cost = job_player_cost(j, st.with_level2_strategy(j, cand), cfg)
            if best is None or cost < best[1]:
                best = (cand, cost)
        assert got_cost == best[1]
        assert got_set == best[0]  # first minimizer in (size, lex) order


def test_job_best_response_guard(monkeypatch):
    # The guard is read at call time: lowering it refuses an accepted
    # instance in every caller, raising it admits a refused one.
    small = _fixed(generate("path", 4), [set()])
    large = _fixed(generate("complete", 21), [set()])
    cfg = GameConfig(beta=1.5)
    assert best_response_job_exact(0, small, cfg) == (frozenset({0, 2}), 9.0)
    with pytest.raises(GuardExceeded) as refused:
        best_response_job_exact(0, large, cfg)
    assert str(refused.value) == (
        "exact best-response enumeration guard exceeded: size 21 > limit 20"
    )
    monkeypatch.setattr(eq, "EXACT_ENUMERATION_GUARD", 3)
    for call in (
        lambda: best_response_job_exact(0, small, cfg),
        lambda: is_nash(small, cfg, Scope.LEVEL2),
        lambda: best_response_dynamics(small, cfg, Scope.LEVEL2),
    ):
        with pytest.raises(GuardExceeded) as refused:
            call()
        assert str(refused.value) == (
            "exact best-response enumeration guard exceeded: size 4 > limit 3"
        )
    monkeypatch.setattr(eq, "EXACT_ENUMERATION_GUARD", 21)
    assert best_response_job_exact(0, large, cfg) == (frozenset({0}), 42.5)


def test_fog_best_response_profile_mode():
    l1 = Level1Profile((frozenset(), frozenset({2}), frozenset()))
    st = GameState(l1, _empty_jobs(3, 3))
    strategy, cost = best_response_fog_exact(0, st, GameConfig(alpha=5.0))
    assert strategy == frozenset({1})
    assert cost == 8.0
    # at alpha=1 buying {1} and {1,2} tie at 4, so the smaller set wins
    strategy, cost = best_response_fog_exact(0, st, GameConfig(alpha=1.0))
    assert strategy == frozenset({1})
    assert cost == 4.0


def test_fog_best_response_needs_profile_mode():
    st = _fixed(generate("path", 3), [set(), set(), set()])
    with pytest.raises(PolicyError, match="profile mode"):
        best_response_fog_exact(0, st, GameConfig())


def test_greedy_matches_exact_on_star():
    st = _fixed(generate("star", 5), [set()])
    cfg = GameConfig(beta=1.5)
    assert best_response_job_greedy(0, st, cfg) == best_response_job_exact(0, st, cfg)
    assert best_response_job_greedy(0, st, cfg) == (frozenset({0}), 10.5)


def test_greedy_is_a_fixed_point_at_the_exact_answer():
    rng = random.Random(42)
    for _ in range(15):
        g1 = generate("erdos_renyi", rng.randint(1, 5), p=0.5, seed=rng.randint(0, 10**6))
        st = _fixed(g1, [set()])
        cfg = GameConfig(beta=rng.choice([0.5, 1.5, 3.0]))
        exact_set, exact_cost = best_response_job_exact(0, st, cfg)
        seeded = st.with_level2_strategy(0, exact_set)
        again_set, again_cost = best_response_job_greedy(0, seeded, cfg)
        assert again_set == exact_set
        assert again_cost == exact_cost


def test_greedy_never_beats_exact():
    rng = random.Random(43)
    for _ in range(25):
        g1 = generate("erdos_renyi", rng.randint(1, 6), p=0.4, seed=rng.randint(0, 10**6))
        start = {v for v in range(g1.n) if rng.random() < 0.5}
        st = _fixed(g1, [start])
        cfg = GameConfig(beta=rng.choice([0.5, 1.5, 3.0]))
        _, greedy_cost = best_response_job_greedy(0, st, cfg)
        _, exact_cost = best_response_job_exact(0, st, cfg)
        assert greedy_cost >= exact_cost


# -------------------------------------------------------------------- is_nash


def test_complete_bipartite_is_nash_for_small_beta():
    g1 = generate("complete", 2)
    st = GameState(g1, construct_complete_bipartite(2, 2), allow_unequal=True)
    stable, witness = is_nash(st, GameConfig(beta=0.5), Scope.LEVEL2)
    assert stable and witness is None


def test_complete_bipartite_unravels_above_beta_one():
    g1 = generate("complete", 2)
    st = GameState(g1, construct_complete_bipartite(2, 2), allow_unequal=True)
    stable, witness = is_nash(st, GameConfig(beta=1.5), Scope.LEVEL2)
    assert not stable
    assert witness.level is Scope.LEVEL2
    assert witness.player == 0
    assert witness.better_strategy == frozenset({0})
    assert witness.better_cost < witness.current_cost


def test_level1_single_purchase_is_nash():
    l1 = Level1Profile((frozenset({1}), frozenset()))
    st = GameState(l1, _empty_jobs(2, 2))
    stable, _ = is_nash(st, GameConfig(alpha=1.0), Scope.LEVEL1)
    assert stable


def test_level1_double_purchase_has_a_free_rider_deviation():
    l1 = Level1Profile((frozenset({1}), frozenset({0})))
    st = GameState(l1, _empty_jobs(2, 2))
    stable, witness = is_nash(st, GameConfig(alpha=1.0), Scope.LEVEL1)
    assert not stable
    # dropping the duplicate purchase keeps the edge and saves alpha
    assert witness.player == 0
    assert witness.better_strategy == frozenset()
    assert (witness.current_cost, witness.better_cost) == (2.0, 1.0)


def test_level1_scope_rejects_fixed_graph():
    st = _fixed(generate("path", 3), [set(), set(), set()])
    with pytest.raises(PolicyError, match="profile mode"):
        is_nash(st, GameConfig(), Scope.LEVEL1)


def test_scope_both_checks_fog_players_first():
    l1 = Level1Profile((frozenset({1}), frozenset({0})))
    st = GameState(l1, _empty_jobs(2, 2))
    _, witness = is_nash(st, GameConfig(alpha=1.0), Scope.BOTH)
    assert witness.level is Scope.LEVEL1


# ------------------------------------------------------------------- dynamics


def test_dynamics_star_converges_to_the_center():
    st = GameState(generate("star", 4), _empty_jobs(4, 4))
    trace = best_response_dynamics(st, GameConfig(beta=1.5), Scope.LEVEL2)
    assert trace.outcome is DynamicsOutcome.CONVERGED
    assert len(trace.moves) == 4
    assert trace.rounds_used == 2
    assert all(s == frozenset({0}) for s in trace.final_state.level2.strategies)
    assert all(m.delta < 0 for m in trace.moves)


def test_dynamics_at_equilibrium_makes_no_moves():
    g1 = generate("complete", 2)
    st = GameState(g1, construct_complete_bipartite(2, 2), allow_unequal=True)
    trace = best_response_dynamics(st, GameConfig(beta=0.5), Scope.LEVEL2)
    assert trace.outcome is DynamicsOutcome.CONVERGED
    assert trace.moves == ()
    assert trace.final_state == st


def test_dynamics_budget_exhaustion():
    st = GameState(generate("star", 4), _empty_jobs(4, 4))
    trace = best_response_dynamics(st, GameConfig(beta=1.5), Scope.LEVEL2, max_rounds=0)
    assert trace.outcome is DynamicsOutcome.BUDGET_EXHAUSTED
    assert trace.final_state == st
    assert trace.rounds_used == 0


def test_dynamics_random_permutation_reproducible_per_seed():
    st = GameState(generate("path", 4), _empty_jobs(4, 4))
    cfg = GameConfig(beta=1.5)
    a = best_response_dynamics(st, cfg, Scope.LEVEL2, schedule="random_permutation", seed=3)
    b = best_response_dynamics(st, cfg, Scope.LEVEL2, schedule="random_permutation", seed=3)
    assert a == b
    assert a.outcome is DynamicsOutcome.CONVERGED


def test_dynamics_validates_schedule_and_oracle():
    st = GameState(generate("path", 3), _empty_jobs(3, 3))
    with pytest.raises(ValueError, match="unknown schedule"):
        best_response_dynamics(st, GameConfig(), Scope.LEVEL2, schedule="sorted")
    with pytest.raises(ValueError, match="unknown oracle"):
        best_response_dynamics(st, GameConfig(), Scope.LEVEL2, oracle="magic")
    with pytest.raises(ValueError, match="max_rounds must be non-negative"):
        best_response_dynamics(st, GameConfig(), Scope.LEVEL2, max_rounds=-1)


def test_is_nash_and_dynamics_refuse_more_jobs_than_the_cost_guard_first(monkeypatch):
    # A run that builds and asks every job finishes on no more jobs than
    # model.COST_PAIR_GUARD, read at call time; _check_run refuses that
    # first, before a bad schedule.
    st = GameState(generate("path", 3), _empty_jobs(3, 4), allow_unequal=True)
    monkeypatch.setattr(model, "COST_PAIR_GUARD", 3)
    calls = (
        lambda: is_nash(st, GameConfig(), Scope.LEVEL2),
        lambda: best_response_dynamics(st, GameConfig(), Scope.LEVEL2),
        lambda: best_response_dynamics(st, GameConfig(), Scope.LEVEL2, schedule="sorted"),
    )
    for call in calls:
        with pytest.raises(GuardExceeded, match="job count") as refused:
            call()
        assert str(refused.value) == "job count guard exceeded: size 4 > limit 3"
    monkeypatch.setattr(model, "COST_PAIR_GUARD", 4)
    assert is_nash(st, GameConfig(), Scope.LEVEL2)[0] is False
    assert best_response_dynamics(st, GameConfig(), Scope.LEVEL2).moves


# The reference for _check_run: the same refusals read from a built state,
# listing the scoped players that is_nash and dynamics would ask.
def _reference_players(state, scope):
    players = []
    if scope in (Scope.LEVEL1, Scope.BOTH):
        if not state.profile_mode:
            raise PolicyError("level-1 scope needs profile mode, not a fixed graph")
        players.extend((Scope.LEVEL1, i) for i in range(state.n1))
    if scope in (Scope.LEVEL2, Scope.BOTH):
        players.extend((Scope.LEVEL2, j) for j in range(state.n2))
    return players


def _reference_exact_guard(n1):
    if n1 > eq.EXACT_ENUMERATION_GUARD:
        raise GuardExceeded("exact best-response enumeration", eq.EXACT_ENUMERATION_GUARD, n1)


def _reference_nash_refusal(state, scope):
    if _reference_players(state, scope):
        _reference_exact_guard(state.n1)


def _reference_dynamics_refusal(state, scope, schedule, oracle, max_rounds):
    if schedule not in eq.SCHEDULES:
        raise ValueError(f"unknown schedule {schedule!r}")
    if oracle not in ("exact", "greedy"):
        raise ValueError(f"unknown oracle {oracle!r}")
    if max_rounds < 0:
        raise ValueError(f"max_rounds must be non-negative, got {max_rounds}")
    players = _reference_players(state, scope)
    if oracle == "exact" and players and max_rounds:
        _reference_exact_guard(state.n1)


def _outcome(call):
    """(type, message) of what call raises, or ("ran", value)."""
    try:
        return "ran", call()
    except Exception as refused:
        return type(refused), str(refused)


def test_check_run_refuses_as_the_built_state_reference(monkeypatch):
    # _check_run reads counts only; the references read the built state.
    # Each refusal must agree in type and message, in _check_run and in both
    # analyses, and every call the references pass must reach the (stubbed)
    # engine.
    monkeypatch.setattr(oracles, "_first_witness", lambda state, cfg, scope: "nash ran")
    monkeypatch.setattr(oracles, "_dynamics", lambda state, cfg, scope, *rest: "dynamics ran")
    cfg = GameConfig()
    for scope, profile_mode, n1, n2 in itertools.product(Scope, (False, True), (0, 3, 21), (0, 2)):
        path = new_graph(n1, [(i, i + 1) for i in range(n1 - 1)])
        level1 = Level1Profile((frozenset(),) * n1) if profile_mode else path
        state = GameState(level1, _empty_jobs(n1, n2), allow_unequal=True)
        counts = scope, n1, n2, profile_mode
        expected = _outcome(lambda: _reference_nash_refusal(state, scope))
        assert _outcome(lambda: eq._check_run(*counts)) == expected, counts
        ran = ("ran", "nash ran") if expected == ("ran", None) else expected
        assert _outcome(lambda: is_nash(state, cfg, scope)) == ran, counts
        schedules = ("round_robin", "random_permutation", "sorted")
        for schedule, oracle, max_rounds in itertools.product(
            schedules, ("exact", "greedy", "magic"), (-1, 0, 1)
        ):
            args = schedule, oracle, max_rounds
            expected = _outcome(lambda: _reference_dynamics_refusal(state, scope, *args))
            assert _outcome(lambda: eq._check_run(*counts, *args)) == expected, (counts, args)
            ran = ("ran", "dynamics ran") if expected == ("ran", None) else expected
            got = _outcome(
                lambda: best_response_dynamics(
                    state, cfg, scope, schedule=schedule, max_rounds=max_rounds, oracle=oracle
                )
            )
            assert got == ran, (counts, args)


def test_lone_calls_and_runs_of_their_level_refuse_alike(monkeypatch):
    # A lone best response is a one-pass run of its level: on each refusal
    # path it raises what is_nash and dynamics of that level raise, and
    # with the greedy oracle past the exact guard both answer.
    def ran(call):
        outcome = _outcome(call)
        return "ran" if outcome[0] == "ran" else outcome

    def lone_and_runs(state, level, oracle="exact"):
        lone = {
            (Scope.LEVEL1, "exact"): best_response_fog_exact,
            (Scope.LEVEL1, "greedy"): lambda i, st, c: eq._best_response(level, i, st, c, oracle),
            (Scope.LEVEL2, "exact"): best_response_job_exact,
            (Scope.LEVEL2, "greedy"): best_response_job_greedy,
        }[level, oracle]
        calls = [lambda: lone(0, state, cfg)]
        if oracle == "exact":
            calls.append(lambda: is_nash(state, cfg, level))
        calls.append(lambda: best_response_dynamics(state, cfg, level, max_rounds=1, oracle=oracle))
        return [ran(call) for call in calls]

    cfg = GameConfig()
    big = eq.EXACT_ENUMERATION_GUARD + 1
    fixed = _fixed(generate("path", 3), [{0}, {1}, {2}])
    live = GameState(Level1Profile(tuple(map(frozenset, ({1}, {2}, {0})))), _empty_jobs(3, 3))
    past_guard = _fixed(generate("path", big), [{0}])
    profile = GameState(Level1Profile((frozenset(),) * big), _empty_jobs(big, 1), allow_unequal=True)
    policy = (PolicyError, "level-1 scope needs profile mode, not a fixed graph")
    assert lone_and_runs(fixed, Scope.LEVEL1) == [policy] * 3
    message = f"exact best-response enumeration guard exceeded: size {big} > limit {big - 1}"
    assert lone_and_runs(past_guard, Scope.LEVEL2) == [(GuardExceeded, message)] * 3
    assert lone_and_runs(profile, Scope.LEVEL1) == [(GuardExceeded, message)] * 3
    assert lone_and_runs(past_guard, Scope.LEVEL2, "greedy") == ["ran"] * 2
    assert lone_and_runs(profile, Scope.LEVEL1, "greedy") == ["ran"] * 2
    monkeypatch.setattr(model, "COST_PAIR_GUARD", 2)
    job_count = (GuardExceeded, "job count guard exceeded: size 3 > limit 2")
    for level, oracle in itertools.product((Scope.LEVEL1, Scope.LEVEL2), ("exact", "greedy")):
        calls = lone_and_runs(live if level is Scope.LEVEL1 else fixed, level, oracle)
        assert calls == [job_count] * len(calls), (level, oracle)


def test_dynamics_greedy_oracle_converges_on_star():
    st = GameState(generate("star", 4), _empty_jobs(4, 4))
    trace = best_response_dynamics(st, GameConfig(beta=1.5), Scope.LEVEL2, oracle="greedy")
    assert trace.outcome is DynamicsOutcome.CONVERGED
    stable, _ = is_nash(trace.final_state, GameConfig(beta=1.5), Scope.LEVEL2)
    assert stable


def test_dynamics_detects_revisited_states(monkeypatch):
    # no tiny instance cycles naturally, so force an oscillating oracle
    st = _fixed(generate("complete", 2), [{0}])
    flip = {frozenset({0}): frozenset({1}), frozenset({1}): frozenset({0})}
    asked = []
    monkeypatch.setattr(
        oracles,
        "_deviation",
        lambda level, j, state, cfg, oracle, memo: (
            asked.append(j) or state.level2.strategies[j],
            2.0,
            flip[state.level2.strategies[j]],
            1.0,
        ),
    )
    trace = eq.best_response_dynamics(st, GameConfig(), Scope.LEVEL2, max_rounds=50)
    assert asked == [0, 0]
    assert trace.outcome is DynamicsOutcome.CYCLE_DETECTED
    assert trace.cycle_period == 2
    assert trace.final_state == st


def test_path5_two_jobs_have_a_better_response_cycle_but_best_responses_converge():
    # Six strictly improving moves return to the start, so the level-2 game
    # has no finite improvement property and no generalized ordinal
    # potential (Monderer & Shapley, GEB 1996); exact best responses from
    # the same start still settle.
    g1 = generate("path", 5)
    cfg = GameConfig(beta=2.5, job_cost_type=JobCostType.TYPE_II)
    assert cfg.transit_policy is TransitPolicy.FULL_COMBINED
    a, b = {0, 1, 2}, {4}
    ab = a | b
    cycle = [(a, ab), (b, ab), (b, a), (ab, a), (ab, b), (a, b), (a, ab)]
    costs = []
    for before, after in zip(cycle, cycle[1:]):
        j = 0 if before[1] == after[1] else 1
        old, new = _fixed(g1, before), _fixed(g1, after)
        assert old.level2.strategies[1 - j] == new.level2.strategies[1 - j]
        pair = (job_player_cost(j, old, cfg), job_player_cost(j, new, cfg))
        rows = job_rows(g1, oracles._job_key(j, old, cfg, {}), cfg)
        assert pair == tuple(rows.evaluate(s.level2.strategies[j]) for s in (old, new))
        costs.append(pair)
    assert costs == [(15.5, 14.5), (16.0, 15.5), (17.5, 16.0)] * 2

    trace = best_response_dynamics(_fixed(g1, cycle[0]), cfg, Scope.LEVEL2)
    assert trace.outcome is DynamicsOutcome.CONVERGED
    assert len(trace.moves) == 2


# ------------------------------------------------------- optima and equilibria


def test_social_optimum_complete3():
    cost, profile = social_optimum_level2(generate("complete", 3), 3, GameConfig(beta=1.5))
    assert cost == 19.5
    assert profile.strategies == (frozenset({0}),) * 3


def test_social_optimum_under_fog_only_copies_a_lone_jobs_best_response():
    # Job costs do not interact under FOG_ONLY, so the optimum gives every
    # job the answer a job would choose alone.
    cfg = GameConfig(beta=1.5, transit_policy=TransitPolicy.FOG_ONLY)
    for i in range(10):
        g1 = generate("erdos_renyi", 3, p=0.6, seed=9100 + i, require_connected=True)
        lone = _fixed(g1, [()])
        best_set, best_cost = best_response_job_exact(0, lone, cfg)
        cost, profile = social_optimum_level2(g1, 3, cfg)
        assert profile.strategies == (best_set,) * 3
        assert cost == 3 * best_cost


def test_social_optimum_type1_single_vertex():
    g1 = Graph(1, frozenset())
    cfg = GameConfig(beta=1.0, job_cost_type=JobCostType.TYPE_I)
    cost, profile = social_optimum_level2(g1, 1, cfg)
    assert cost == 0.0
    assert profile.strategies == (frozenset({0}),)


def test_social_optimum_guard_validation():
    with pytest.raises(GuardExceeded, match="joint profile enumeration"):
        social_optimum_level2(generate("path", 6), 4, GameConfig())


def test_social_optimum_zero_jobs():
    cost, profile = social_optimum_level2(generate("complete", 3), 0, GameConfig())
    assert cost == 0.0
    assert profile.strategies == ()


def test_social_optimum_refuses_a_negative_job_count():
    with pytest.raises(ValueError) as refused:
        social_optimum_level2(generate("path", 3), -1, GameConfig())
    assert str(refused.value) == "n2 must be non-negative, got -1"


@pytest.mark.parametrize("analysis", [social_optimum_level2, enumerate_nash_level2])
def test_joint_analyses_without_fog_vertices_refuse_past_the_joint_guard(monkeypatch, analysis):
    # Without fog vertices the walk is one vector of n2 empty strategies:
    # n2 table reads plus one table of 2^0 costs, so the joint guard bounds
    # n2, and a walk over 2^63 - 1 jobs never starts.
    g1 = Graph(0, frozenset())
    with pytest.raises(GuardExceeded) as refused:
        analysis(g1, 2**63 - 1, GameConfig())
    assert (refused.value.guard, refused.value.limit, refused.value.actual) == (
        "joint profile enumeration",
        eq.JOINT_ENUMERATION_GUARD,
        2**63,
    )
    monkeypatch.setattr(eq, "JOINT_ENUMERATION_GUARD", 3)
    with pytest.raises(GuardExceeded, match="size 4 > limit 3"):
        analysis(g1, 3, GameConfig())
    monkeypatch.setattr(eq, "JOINT_ENUMERATION_GUARD", 4)
    empty = Level2Profile(0, (frozenset(),) * 3)
    expected = (0.0, empty) if analysis is social_optimum_level2 else [(empty, 0.0)]
    assert analysis(g1, 3, GameConfig()) == expected


def test_enumerate_nash_large_beta_prefers_singletons():
    found = enumerate_nash_level2(generate("complete", 2), 2, GameConfig(beta=10.0))
    profiles = sorted(tuple(tuple(sorted(s)) for s in p.strategies) for p, _ in found)
    assert profiles == [((0,), (0,)), ((0,), (1,)), ((1,), (0,)), ((1,), (1,))]


def test_enumerate_nash_single_vertex():
    found = enumerate_nash_level2(Graph(1, frozenset()), 1, GameConfig(beta=1.5))
    assert len(found) == 1
    profile, cost = found[0]
    assert profile.strategies == (frozenset({0}),)
    assert cost == 2.5


def test_empirical_poa_complete3_low_beta():
    report = empirical_poa(generate("complete", 3), 3, GameConfig(beta=0.5))
    assert report.poa == 1.0
    assert report.optimum_cost == 13.5
    assert report.ne_count == 1
    assert report.worst_ne_profile == construct_complete_bipartite(3, 3)


def test_empirical_poa_midrange_beta_path():
    report = empirical_poa(generate("path", 3), 3, GameConfig(beta=3.5))
    assert report.poa == 1.0
    assert report.optimum_cost == 25.5
    assert report.ne_count == 1


def test_empirical_poa_rejects_non_positive_optimum():
    cfg = GameConfig(beta=1.0, job_cost_type=JobCostType.TYPE_I)
    with pytest.raises(ValueError, match="non-positive optimum"):
        empirical_poa(Graph(1, frozenset()), 1, cfg)


def test_empirical_poa_guard(monkeypatch):
    # Path 6x4 has 28 lend classes: 28^4 vectors of 4 reads and at most
    # 28^3 tables of 2^6 costs; the walk refuses at its 11th class, on
    # 11^3 * (4*11 + 2^6).  The guard is read at call time: path 3,
    # whose one class needs 3 + 2^3 reads at n2 = 3, runs at 11, and
    # complete 4x4, 4 + 2^4 reads, at 20.
    with pytest.raises(GuardExceeded) as refused:
        empirical_poa(generate("path", 6), 4, GameConfig())
    assert str(refused.value) == (
        "joint profile enumeration guard exceeded: size 143748 > limit 131072"
    )
    path3, k4 = generate("path", 3), generate("complete", 4)
    cfg = GameConfig(beta=1.5)
    accepted = empirical_poa(path3, 3, cfg)
    monkeypatch.setattr(eq, "JOINT_ENUMERATION_GUARD", 10)
    for analysis in (social_optimum_level2, enumerate_nash_level2, empirical_poa):
        with pytest.raises(GuardExceeded) as refused:
            analysis(path3, 3, cfg)
        assert str(refused.value) == (
            "joint profile enumeration guard exceeded: size 11 > limit 10"
        )
    monkeypatch.setattr(eq, "JOINT_ENUMERATION_GUARD", 11)
    assert empirical_poa(path3, 3, cfg) == accepted
    monkeypatch.setattr(eq, "JOINT_ENUMERATION_GUARD", 20)
    assert empirical_poa(k4, 4, cfg).poa == 1.0


def test_enumerate_nash_refuses_to_list_more_equilibria_than_the_guard(monkeypatch):
    # Complete 3x3 at beta = 1.5: every job buys one of the three vertices,
    # so 27 equilibria, listed after a walk of 3 + 2^3 reads.  Counting
    # them lists none, so empirical_poa runs at any guard the walk fits.
    k3, cfg = generate("complete", 3), GameConfig(beta=1.5)
    monkeypatch.setattr(eq, "JOINT_ENUMERATION_GUARD", 27)
    assert len(enumerate_nash_level2(k3, 3, cfg)) == 27
    monkeypatch.setattr(eq, "JOINT_ENUMERATION_GUARD", 26)
    with pytest.raises(GuardExceeded) as refused:
        enumerate_nash_level2(k3, 3, cfg)
    assert str(refused.value) == "joint equilibrium listing guard exceeded: size 27 > limit 26"
    monkeypatch.setattr(eq, "JOINT_ENUMERATION_GUARD", 11)
    assert empirical_poa(k3, 3, cfg).ne_count == 27


# --------------------------------------------------------------- constructors


def test_construct_complete_bipartite():
    profile = construct_complete_bipartite(3, 2)
    assert profile.strategies == (frozenset({0, 1, 2}),) * 2


# ---------------------------------------------------------------- diagnostics


def test_domination_diagnostic_in_regime():
    diag = domination_diagnostic(generate("path", 5), GameConfig(beta=1.5))
    assert diag.strategy == frozenset({0, 3})
    assert diag.is_dominating
    assert diag.strategy_size == diag.min_dominating_size == 2
    assert diag.beta_in_supported_range
    assert diag.consistent


def test_domination_diagnostic_flags_large_beta():
    diag = domination_diagnostic(generate("path", 5), GameConfig(beta=100.0))
    assert diag.strategy == frozenset({2})
    assert diag.cost == 111.0
    assert not diag.is_dominating
    assert not diag.beta_in_supported_range
    assert not diag.consistent
    assert not is_dominating_set(generate("path", 5), diag.strategy)
