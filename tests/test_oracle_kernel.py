"""Distance-row oracles: differential test against candidate-by-candidate oracles.

The reference oracles below price every candidate the way the package did
before the distance-row kernel: build the deviated state with
with_level*_strategy and call job_player_cost or edge_fog_player_cost on
it.  The kernel must return the same set and a cost with the same repr
(so 0 and 0.0 differ) on every state, raise the same exception first, and
drive is_nash and best_response_dynamics to the same results when the
reference is substituted at the seam they share.

Two more references cover the kernel's own steps: reference_exact_best is
the argmin over the whole scan, before the exact oracles stopped at the
size floors, and reference_layers builds the distance layers from BFS
distance rows, before the bit-parallel BFS over adjacency bitmasks.
reference_job_deviation_rows adds one vertex per other job, as job rows
did before they kept only the far fog pairs the other jobs lend, as each
fog vertex's partners two hops away.

The keyed path prices a job from its lend key (kernel.lent_pairs,
kernel.lend_keys, kernel.job_rows), and is_nash and dynamics keep one
answer per key for their call.  per_job_deviation is the path it
replaced: every call ORs the other jobs' per-vertex partners
(reference_lent_partners) and builds the job's rows anew; is_nash and
dynamics must give the same witnesses, traces and outcomes on both.
"""

import collections
import itertools
import math
import random
import tracemalloc

import pytest

from foggame import equilibrium as eq
from foggame import graph, greedy, kernel, model, oracles
from foggame.equilibrium import (
    DynamicsOutcome,
    Scope,
    best_response_dynamics,
    best_response_fog_exact,
    best_response_job_exact,
    best_response_job_greedy,
    is_nash,
)
from foggame.errors import GuardExceeded, PolicyError
from foggame.generators import generate
from foggame.graph import (
    INF,
    Graph,
    all_pairs_distances,
    is_connected,
    single_source_distances,
)
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

# ------------------------------------------------------------------ reference


def _subsets(universe):
    for k in range(len(universe) + 1):
        for combo in itertools.combinations(universe, k):
            yield frozenset(combo)


def _first_minimum(candidates, evaluate):
    best_set, best_cost = None, 0.0
    for cand in candidates:
        cost = evaluate(cand)
        if best_set is None or cost < best_cost:
            best_set, best_cost = cand, cost
    return best_set, best_cost


def _reference_guard(n1):
    guard = eq.EXACT_ENUMERATION_GUARD
    if n1 > guard:
        raise GuardExceeded("exact best-response enumeration", guard, n1)


def reference_job_exact(j, state, cfg):
    _reference_guard(state.n1)
    return _first_minimum(
        _subsets(range(state.n1)),
        lambda cand: job_player_cost(j, state.with_level2_strategy(j, cand), cfg),
    )


def reference_fog_exact(i, state, cfg):
    if not state.profile_mode:
        raise PolicyError("fog best response needs profile mode, not a fixed graph")
    _reference_guard(state.n1)
    return _first_minimum(
        _subsets([v for v in range(state.n1) if v != i]),
        lambda cand: edge_fog_player_cost(i, state.with_level1_strategy(i, cand), cfg),
    )


def reference_job_greedy(j, state, cfg):
    return greedy._local_search(
        state.level2.strategies[j],
        range(state.n1),
        lambda cand: job_player_cost(j, state.with_level2_strategy(j, cand), cfg),
    )


def reference_fog_greedy(i, state, cfg):
    if not state.profile_mode:
        raise PolicyError("fog best response needs profile mode, not a fixed graph")
    return greedy._local_search(
        state.level1.strategies[i],
        [v for v in range(state.n1) if v != i],
        lambda cand: edge_fog_player_cost(i, state.with_level1_strategy(i, cand), cfg),
    )


def reference_deviation(level, player, state, cfg, oracle, memo):
    """The current-cost and oracle calls that is_nash and dynamics made before."""
    if level is Scope.LEVEL1:
        current = state.level1.strategies[player]
        cost = edge_fog_player_cost(player, state, cfg)
        if oracle == "exact":
            return (current, cost, *reference_fog_exact(player, state, cfg))
        return (current, cost, *reference_fog_greedy(player, state, cfg))
    current = state.level2.strategies[player]
    cost = job_player_cost(player, state, cfg)
    if oracle == "exact":
        return (current, cost, *reference_job_exact(player, state, cfg))
    return (current, cost, *reference_job_greedy(player, state, cfg))


# ------------------------------------------------------------------- harness


def keyed_job_rows(j, state, cfg):
    """Job j's rows on the keyed path: its lend key in state, then kernel.job_rows."""
    return kernel.job_rows(state.g1, oracles._job_key(j, state, cfg, {}), cfg)


def dynamics_fog_greedy(i, state, cfg):
    """The greedy fog answer, which only dynamics asks for, behind a lone best response's refusals."""
    return eq._best_response(Scope.LEVEL1, i, state, cfg, "greedy")


def _outcome(fn, *args):
    """(set, repr(cost)), or the exception type and message raised."""
    try:
        strategy, cost = fn(*args)
    except (ValueError, GuardExceeded, PolicyError) as exc:
        return type(exc), str(exc)
    return strategy, repr(cost)


SEAM_CALLS = collections.Counter()  # replacement -> calls that reached it


def _substituted(replacement, fn, *args, **kwargs):
    """fn run with the seam of is_nash and dynamics, oracles._deviation, replaced.

    SEAM_CALLS counts the replacement's calls: a test asserts they grew,
    since a patch on a name the loops no longer read would pass vacuously.
    """

    def counted(*seam_args):
        SEAM_CALLS[replacement] += 1
        return replacement(*seam_args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "_deviation", counted)
        return fn(*args, **kwargs)


def _with_reference(fn, *args, **kwargs):
    return _substituted(reference_deviation, fn, *args, **kwargs)


def _random_subset(rng, universe, p):
    return frozenset(v for v in universe if rng.random() < p)


def _random_state(rng):
    """A small state in profile or fixed-graph mode, often disconnected.

    Purchase densities run from none to dense, so states include empty
    strategies, duplicate purchases, isolated fog vertices (infinite
    costs) and fog players whose only links were bought by others.
    """
    n1 = rng.randint(1, 6)
    n2 = rng.randint(0, 4)
    jobs = Level2Profile(
        n1, tuple(_random_subset(rng, range(n1), rng.choice((0.0, 0.2, 0.5))) for _ in range(n2))
    )
    if rng.random() < 0.5:
        p = rng.choice((0.0, 0.15, 0.3, 0.6))
        buys = [_random_subset(rng, [v for v in range(n1) if v != i], p) for i in range(n1)]
        if n1 > 1 and rng.random() < 0.5:
            # player `quiet` buys nothing but is linked by everyone else
            quiet = rng.randrange(n1)
            buys = [set() if i == quiet else set(s) | {quiet} for i, s in enumerate(buys)]
        level1 = Level1Profile(tuple(frozenset(s) for s in buys))
    else:
        kind = rng.choice(("path", "star", "complete", "erdos_renyi", "empty"))
        if kind == "empty":
            level1 = Graph(n1, frozenset())
        elif kind == "erdos_renyi":
            level1 = generate(kind, n1, p=rng.choice((0.2, 0.5)), seed=rng.randrange(10**6))
        else:
            level1 = generate(kind, n1)
    cfg = GameConfig(
        alpha=rng.choice((0.0, 0.5, 1.0, 2.0, 3.5, round(rng.uniform(0, 4), 3))),
        beta=rng.choice((0.0, 0.5, 1.0, 1.5, 2.5, 3.5, round(rng.uniform(0, 4), 3))),
        job_cost_type=rng.choice(tuple(JobCostType)),
        transit_policy=rng.choice(tuple(TransitPolicy)),
    )
    return GameState(level1, jobs, allow_unequal=True), cfg


def _states(seed, count):
    rng = random.Random(seed)
    return [_random_state(rng) for _ in range(count)]


def _scopes(state):
    return (Scope.LEVEL1, Scope.LEVEL2, Scope.BOTH) if state.profile_mode else (Scope.LEVEL2,)


# ---------------------------------------------------------------------- tests


def test_oracles_match_reference_on_random_states():
    for state, cfg in _states(7, 320):
        for j in range(state.n2):
            for fast, reference in (
                (best_response_job_exact, reference_job_exact),
                (best_response_job_greedy, reference_job_greedy),
            ):
                assert _outcome(fast, j, state, cfg) == _outcome(reference, j, state, cfg), (
                    fast.__name__,
                    j,
                    state,
                    cfg,
                )
        for i in range(state.n1):
            for fast, reference in (
                (best_response_fog_exact, reference_fog_exact),
                (dynamics_fog_greedy, reference_fog_greedy),
            ):
                assert _outcome(fast, i, state, cfg) == _outcome(reference, i, state, cfg), (
                    fast.__name__,
                    i,
                    state,
                    cfg,
                )


def test_oracles_cover_the_named_cases():
    states = _states(7, 320)
    profile = [s for s, _ in states if s.profile_mode]
    assert len(profile) > 100 and len(states) - len(profile) > 100
    assert any(s.n1 == 1 for s, _ in states)
    assert any(frozenset() in s.level2.strategies for s, _ in states)
    inbound_only = [
        (s, i)
        for s in profile
        for i in range(s.n1)
        if not s.level1.strategies[i] and any(i in b for b in s.level1.strategies)
    ]
    assert inbound_only
    assert sum(not is_connected(s.g1) for s, _ in states) > 50
    # greedy search stays put when no single step reaches every fog vertex
    assert any(
        best_response_job_greedy(j, s, c)[1] == INF for s, c in states for j in range(s.n2)
    )
    costs = {cfg.job_cost_type for _, cfg in states} | {cfg.transit_policy for _, cfg in states}
    assert costs == set(JobCostType) | set(TransitPolicy)


def _chain(n1, links):
    """Level-1 profile in which player i buys link (i, k) for each (i, k) in links."""
    buys = [set() for _ in range(n1)]
    for i, k in links:
        buys[i].add(k)
    return Level1Profile(tuple(frozenset(b) for b in buys))


def _deep_shapes():
    """Named live states whose distance layers run past 60 bits.

    Each item is (state, fog player) for job 0.  Job 1 links both ends and
    the middle of the fog graph, a shortcut under FULL_COMBINED transit.
    """
    shapes = [
        (f"path-{n1}", _chain(n1, [(i, i + 1) for i in range(n1 - 1)]), 0) for n1 in (9, 12)
    ]
    shapes += [
        (f"cycle-{n1}", _chain(n1, [(i, (i + 1) % n1) for i in range(n1)]), n1 // 2)
        for n1 in (11, 14)
    ]
    # a chain of 11 and an isolated vertex 11: infinite until it is bought
    shapes.append(("chain-and-isolated-12", _chain(12, [(i, i + 1) for i in range(10)]), 11))
    # player 0 buys nothing; its only link, to 1, is bought by 1
    shapes.append(("inbound-only-12", _chain(12, [(i + 1, i) for i in range(11)]), 0))
    for name, level1, fog in shapes:
        n1 = level1.n1
        jobs = Level2Profile(n1, (frozenset({1}), frozenset({0, n1 // 2, n1 - 1})))
        yield pytest.param(GameState(level1, jobs, allow_unequal=True), fog, id=name)


DEEP_CONFIGS = [
    GameConfig(alpha=alpha, beta=beta, job_cost_type=kind, transit_policy=transit)
    for kind, alpha, beta in ((JobCostType.TYPE_II, 2.0, 1.5), (JobCostType.TYPE_I, 0.5, 0.005))
    for transit in TransitPolicy
]


@pytest.mark.parametrize("state, fog", _deep_shapes())
def test_oracles_match_reference_on_deep_masks(state, fog):
    for cfg in DEEP_CONFIGS:
        jobs = keyed_job_rows(0, state, cfg)
        if cfg.transit_policy is TransitPolicy.FOG_ONLY:
            assert max(m.bit_length() for m in jobs.masks.values()) > 60
        for fast, reference in (
            (best_response_job_exact, reference_job_exact),
            (best_response_job_greedy, reference_job_greedy),
        ):
            assert _outcome(fast, 0, state, cfg) == _outcome(reference, 0, state, cfg), (
                fast.__name__,
                cfg,
            )
    fogs = kernel.fog_deviation_rows(fog, state, DEEP_CONFIGS[0])
    assert max(m.bit_length() for m in fogs.masks.values()) > 60
    # fog costs do not depend on the job cost type or transit policy
    for cfg in DEEP_CONFIGS[::2]:
        for fast, reference in (
            (best_response_fog_exact, reference_fog_exact),
            (dynamics_fog_greedy, reference_fog_greedy),
        ):
            assert _outcome(fast, fog, state, cfg) == _outcome(reference, fog, state, cfg), (
                fast.__name__,
                cfg,
            )


def test_oracles_match_reference_without_targets():
    # A lone fog player and a job without fog vertices have no targets:
    # zero-width masks, and a distance sum of 0.
    lone = GameState(Level1Profile((frozenset(),)), Level2Profile(1, (frozenset(),)))
    empty = GameState(Graph(0, frozenset()), Level2Profile(0, (frozenset(),)), allow_unequal=True)
    for cfg in DEEP_CONFIGS:
        for fast, reference in (
            (best_response_fog_exact, reference_fog_exact),
            (dynamics_fog_greedy, reference_fog_greedy),
        ):
            assert _outcome(fast, 0, lone, cfg) == _outcome(reference, 0, lone, cfg)
        for fast, reference in (
            (best_response_job_exact, reference_job_exact),
            (best_response_job_greedy, reference_job_greedy),
        ):
            assert _outcome(fast, 0, empty, cfg) == _outcome(reference, 0, empty, cfg)
            assert _outcome(fast, 0, lone, cfg) == _outcome(reference, 0, lone, cfg)


def test_scan_matches_evaluate_on_random_states():
    for state, cfg in _states(7, 320):
        deviations = [keyed_job_rows(j, state, cfg) for j in range(state.n2)]
        if state.profile_mode:
            deviations += [kernel.fog_deviation_rows(i, state, cfg) for i in range(state.n1)]
        for rows in deviations:
            scanned = list(itertools.chain.from_iterable(rows.scan()))
            evaluated = [rows.evaluate(c) for c in _subsets(rows.universe)]
            assert repr(scanned) == repr(evaluated), (state, cfg)


def test_oracles_match_reference_on_errors(monkeypatch):
    path = generate("path", 4)
    fixed = GameState(path, Level2Profile(4, (frozenset({1}), frozenset())), allow_unequal=True)
    live = GameState(
        Level1Profile((frozenset({1}), frozenset(), frozenset({1}), frozenset({2}))),
        Level2Profile(4, (frozenset({0}),)),
        allow_unequal=True,
    )
    cfg = GameConfig()
    default = eq.EXACT_ENUMERATION_GUARD
    # (oracle, reference, arguments, exact guard)
    cases = [
        (best_response_job_exact, reference_job_exact, (-1, fixed, cfg), default),
        (best_response_job_exact, reference_job_exact, (-1, fixed, cfg), 3),
        (best_response_job_exact, reference_job_exact, (0, fixed, cfg), 3),
        (best_response_fog_exact, reference_fog_exact, (0, fixed, cfg), default),
        (best_response_fog_exact, reference_fog_exact, (-1, fixed, cfg), 3),
        (best_response_fog_exact, reference_fog_exact, (-1, live, cfg), default),
        (best_response_fog_exact, reference_fog_exact, (-1, live, cfg), 3),
        (dynamics_fog_greedy, reference_fog_greedy, (0, fixed, cfg), default),
        (best_response_job_greedy, reference_job_greedy, (-1, live, cfg), default),
    ]
    for fast, reference, args, guard in cases:
        monkeypatch.setattr(eq, "EXACT_ENUMERATION_GUARD", guard)
        expected = _outcome(reference, *args)
        assert isinstance(expected[0], type), (reference.__name__, args)
        assert _outcome(fast, *args) == expected, (fast.__name__, args)


def test_index_past_the_last_player_is_a_value_error():
    # The candidate-by-candidate oracles failed here with an IndexError
    # while building the first deviated profile.
    state = GameState(generate("path", 3), Level2Profile(3, (frozenset(),)), allow_unequal=True)
    with pytest.raises(ValueError, match=r"job 1 outside \[0,1\)"):
        best_response_job_exact(1, state, GameConfig())
    live = GameState(
        Level1Profile((frozenset({1}), frozenset(), frozenset({1}))),
        Level2Profile(3, ()),
        allow_unequal=True,
    )
    with pytest.raises(ValueError, match=r"fog player 3 outside \[0,3\)"):
        best_response_fog_exact(3, live, GameConfig())


def test_fog_rows_need_profile_mode():
    state = GameState(generate("path", 3), Level2Profile(3, (frozenset(),) * 3))
    with pytest.raises(ValueError) as refused:
        kernel.fog_deviation_rows(0, state, GameConfig())
    assert str(refused.value) == "level-1 strategies cannot change in fixed-graph mode"


def test_is_nash_matches_reference(monkeypatch):
    asked = SEAM_CALLS[reference_deviation]
    for state, cfg in _states(11, 120):
        for scope in _scopes(state):
            fast = is_nash(state, cfg, scope)
            assert repr(fast) == repr(_with_reference(is_nash, state, cfg, scope)), (
                state,
                cfg,
                scope,
            )
    assert SEAM_CALLS[reference_deviation] > asked
    state = GameState(generate("path", 3), Level2Profile(3, ()), allow_unequal=True)
    with pytest.raises(PolicyError):
        is_nash(state, GameConfig(), Scope.BOTH)
    jobs = GameState(generate("path", 4), Level2Profile(4, (frozenset(),)), allow_unequal=True)
    monkeypatch.setattr(eq, "EXACT_ENUMERATION_GUARD", 3)
    for run in (is_nash, lambda *a: _with_reference(is_nash, *a)):
        with pytest.raises(GuardExceeded, match=r"size 4 > limit 3"):
            run(jobs, GameConfig(), Scope.LEVEL2)


@pytest.mark.parametrize("oracle", ["exact", "greedy"])
def test_dynamics_match_reference(oracle):
    asked = SEAM_CALLS[reference_deviation]
    for index, (state, cfg) in enumerate(_states(13, 60)):
        for scope in _scopes(state):
            kwargs = dict(
                schedule=("round_robin", "random_permutation")[index % 2],
                seed=index,
                max_rounds=4,
                oracle=oracle,
            )
            fast = best_response_dynamics(state, cfg, scope, **kwargs)
            slow = _with_reference(best_response_dynamics, state, cfg, scope, **kwargs)
            assert fast == slow, (state, cfg, scope)
            assert repr(fast.moves) == repr(slow.moves)
    assert SEAM_CALLS[reference_deviation] > asked


def test_exact_oracles_run_no_bfs_and_build_no_graph(monkeypatch):
    # Fixed ten-vertex fog graph with ten jobs, and a live level 1 of ten
    # fog players: an oracle call reads its distance layers from adjacency
    # bitmasks, so it runs no single_source_distances, builds no Graph
    # (combined or otherwise) and builds no profile per candidate.
    rng = random.Random(5)
    g1 = generate("erdos_renyi", 10, p=0.3, seed=3, require_connected=True)
    jobs = Level2Profile(10, tuple(_random_subset(rng, range(10), 0.3) for _ in range(10)))
    fixed = GameState(g1, jobs)
    level1 = Level1Profile(
        tuple(frozenset(v for v in (i + 1, i + 3) if v < 10) for i in range(10))
    )
    live = GameState(level1, jobs)
    live.g1  # build_level1_graph caches the union graph of the profile
    # path 5, relabelled so that no earlier call cached its distances, with
    # far pairs such as {0, 3}
    path5 = Graph(5, frozenset({(0, 2), (2, 4), (1, 4), (1, 3)}))
    counts = {"bfs": 0, "graph": 0, "level1": 0, "level2": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (graph, model):
        monkeypatch.setattr(
            module, "single_source_distances", counted("bfs", graph.single_source_distances)
        )
    monkeypatch.setattr(Graph, "__new__", counted("graph", Graph.__new__))
    monkeypatch.setattr(Level1Profile, "__new__", counted("level1", Level1Profile.__new__))
    monkeypatch.setattr(Level2Profile, "__new__", counted("level2", Level2Profile.__new__))

    for transit in TransitPolicy:
        best_response_job_exact(4, fixed, GameConfig(beta=1.5, transit_policy=transit))
    best_response_fog_exact(4, live, GameConfig(alpha=2.0))
    assert counts == {"bfs": 0, "graph": 0, "level1": 0, "level2": 0}

    # The joint analyses read the far pairs off the same bitmasks.
    eq.empirical_poa(path5, 2, GameConfig(beta=1.5))
    assert counts["bfs"] == 0 and counts["graph"] == 0


def _priced(oracle, *args):
    """The oracle's answer and the number of candidates each scanned size priced."""
    priced = []
    scan = kernel.DeviationRows.scan

    def counted(self):
        for costs in scan(self):
            priced.append(len(costs))
            yield costs

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel.DeviationRows, "scan", counted)
        return oracle(*args), priced


def test_exact_job_best_response_on_path_20_prices_sizes_0_to_7():
    # At beta = 1.5 a size-k strategy costs at least 1.5k + 40 - k; the
    # dominating set of size 7 costs 43.5, and every size from 8 on has a
    # floor of at least 44, so the scan stops after size 7.
    state = GameState(generate("path", 20), Level2Profile(20, (frozenset(),)), allow_unequal=True)
    best, priced = _priced(best_response_job_exact, 0, state, GameConfig(beta=1.5))
    assert best == (frozenset({0, 3, 6, 9, 12, 15, 18}), 43.5)
    assert priced == [math.comb(20, k) for k in range(8)]
    assert sum(priced) == 137_980


# ------------------------------------------------------------ size pruning


def reference_exact_best(rows):
    """First strict minimum over the whole scan, as _exact_best was before size pruning."""
    best_k = best_i = -1
    best_cost = 0.0
    for k, costs in enumerate(rows.scan()):
        cost = min(costs)
        if best_k < 0 or cost < best_cost:
            best_k, best_i, best_cost = k, costs.index(cost), cost
    members = itertools.combinations(rows.universe, best_k)
    return frozenset(next(itertools.islice(members, best_i, None))), best_cost


# 0.0 and the least positive float are the smallest prices GameConfig accepts
PRICES = (0.0, 5e-324, 0.25, 0.999, 1.0, 1.001, 1.5, 2.0, 3.5)


def _pruning_states(seed, count):
    """Seeded states for the size-pruned oracles, with the named cases added.

    The random states include disconnected fog graphs and n1 = 1; the
    named ones add n1 = 0, a lone fog player and a fog player that every
    other player links to.
    """
    states = [state for state, _ in _states(seed, count)]
    no_fog = Level2Profile(0, (frozenset(),))
    states.append(GameState(Graph(0, frozenset()), no_fog, allow_unequal=True))
    states.append(GameState(Level1Profile((frozenset(),)), Level2Profile(1, (frozenset(),))))
    for n1 in (5, 7):
        # everyone buys a link to 0, and 1 to 2 as well: player 0 has n1 - 1 inbound links
        buys = [frozenset()] + [frozenset({0, 2} if i == 1 else {0}) for i in range(1, n1)]
        jobs = Level2Profile(n1, (frozenset({1, n1 - 1}), frozenset()))
        states.append(GameState(Level1Profile(buys), jobs, allow_unequal=True))
    return states


def _pruning_configs(rng):
    for kind in JobCostType:
        for transit in TransitPolicy:
            alpha, beta = rng.choice(PRICES), rng.choice(PRICES)
            yield GameConfig(alpha=alpha, beta=beta, job_cost_type=kind, transit_policy=transit)


def _sizes_read(rows):
    return len(_priced(oracles._exact_best, rows)[1])


def test_size_pruning_matches_the_full_scan():
    rng = random.Random(17)
    pruned = compared = 0
    for state in _pruning_states(19, 160):
        for cfg in _pruning_configs(rng):
            deviations = [
                (keyed_job_rows(j, state, cfg), best_response_job_exact, j)
                for j in range(state.n2)
            ]
            if state.profile_mode:
                deviations += [
                    (kernel.fog_deviation_rows(i, state, cfg), best_response_fog_exact, i)
                    for i in range(state.n1)
                ]
            for rows, oracle, player in deviations:
                expected = repr(reference_exact_best(rows))
                assert repr(oracles._exact_best(rows)) == expected, (state, cfg, player)
                assert repr(oracle(player, state, cfg)) == expected, (state, cfg, player)
                sizes = list(rows.scan())
                floors = rows.floors()
                assert len(floors) == len(sizes)
                for floor, costs in zip(floors, sizes):
                    assert floor <= min(costs), (state, cfg, player)
                compared += 1
                pruned += _sizes_read(rows) < len(sizes)
    # both outcomes are common, so the comparison exercises the stop
    assert compared > 1000
    assert 0.2 * compared < pruned < 0.9 * compared


# ------------------------------------------------------------ distance layers


def reference_layers(universe, rows, width, inbound=()):
    """(masks, base, full, reached) from BFS distance rows.

    This is how DeviationRows built its layers before its bit-parallel
    BFS: bit r * width + t of a member's mask is set iff its row reaches t
    within r hops, for r below depth = 1 + the largest finite entry.
    """
    universe = tuple(universe)
    finite = (d for v in universe for d in rows[v] if d != INF)
    depth = 1 + max(finite, default=0)
    # layers[d]: bits of the layers r >= d at target 0's offset
    layers = [sum(1 << r * width for r in range(d, depth)) for d in range(depth)]
    masks = {
        v: sum(layers[d] << t for t, d in enumerate(rows[v]) if d != INF) for v in universe
    }
    base = 0
    for v in inbound:
        base |= masks[v]
    return masks, base, width * (depth + 1), ((1 << width) - 1) << (depth - 1) * width


def reference_job_layers(j, state, cfg):
    """Rows of job j from the fog graph's all-pairs distances or one BFS per fog vertex."""
    n1 = state.n1
    if cfg.transit_policy is TransitPolicy.FOG_ONLY:
        rows = all_pairs_distances(state.g1)
    else:
        combined = model.build_combined_graph(state.g1, state.level2.replace(j, ()))
        adjacency = combined.adjacency()
        rows = [single_source_distances(combined, v, adjacency)[:n1] for v in range(n1)]
    return reference_layers(range(n1), rows, n1)


def reference_fog_layers(i, state):
    """Rows of fog player i from one BFS per vertex in the union graph without i's links."""
    n1 = state.n1
    rest = Graph(n1, frozenset(e for e in state.g1.edges if i not in e))
    rows = [(dist[:i] + dist[i + 1 :]) for dist in all_pairs_distances(rest)]
    universe = [v for v in range(n1) if v != i]
    inbound = [k for k, bought in enumerate(state.level1.strategies) if i in bought]
    return reference_layers(universe, rows, n1 - 1, inbound)


def _layers(rows):
    return rows.masks, rows.base, rows.full, rows.reached


def test_layers_match_distance_rows():
    shapes = [param.values for param in _deep_shapes()]
    cases = [(state, cfg) for state in _pruning_states(23, 200) for cfg in DEEP_CONFIGS]
    cases += [(state, cfg) for state, _ in shapes for cfg in DEEP_CONFIGS]
    for state, cfg in cases:
        for j in range(state.n2):
            rows = keyed_job_rows(j, state, cfg)
            assert _layers(rows) == reference_job_layers(j, state, cfg), (state, cfg, j)
        if state.profile_mode and cfg is DEEP_CONFIGS[0]:
            for i in range(state.n1):
                rows = kernel.fog_deviation_rows(i, state, cfg)
                assert _layers(rows) == reference_fog_layers(i, state), (state, i)


def test_layers_follow_radii_that_reach_only_jobs():
    # Fog 1 reaches only job 0 in one hop, and the fog targets 0 and 3 two
    # hops out through it: a BFS that stopped, or skipped a layer, once the
    # fog part stopped growing would lose them.
    jobs = Level2Profile(4, (frozenset({0, 1, 3}), frozenset()))
    state = GameState(Graph(4, frozenset({(0, 3)})), jobs, allow_unequal=True)
    cfg = GameConfig()
    rows = keyed_job_rows(1, state, cfg)
    # the largest finite distance is 2, so three layers of four targets
    assert (rows.full, rows.reached) == (16, 0b1111 << 8)
    assert rows.masks[1] == 0b1011_0010_0010
    assert _layers(rows) == reference_job_layers(1, state, cfg)
    assert best_response_job_exact(1, state, cfg) == reference_job_exact(1, state, cfg)


def _lent_path_shapes():
    """Named fixed fog graphs on which a job's shortest paths cross lending jobs.

    Each item is (fog graph, lending jobs, source, target, fog hops, hops
    in the combined graph); a last job links nothing.
    """
    # path 0..6: 0 -> job 0 -> 3 -> job 1 -> 6 takes two lent pairs in a row
    path = Graph(7, frozenset((i, i + 1) for i in range(6)))
    yield pytest.param(path, [{0, 3}, {3, 6}], 0, 6, 6, 4, id="two-lent-pairs-in-a-row")
    # components {0, 1, 2} and {3, 4}: job 0's pair 2-3 is the only way across
    split = Graph(5, frozenset({(0, 1), (1, 2), (3, 4)}))
    yield pytest.param(split, [{2, 3}, {0, 1}], 4, 0, INF, 5, id="partner-only-way-in")


@pytest.mark.parametrize("g1, lending, source, target, fog_hops, hops", _lent_path_shapes())
def test_job_layers_follow_lent_pairs(g1, lending, source, target, fog_hops, hops):
    jobs = Level2Profile(g1.n, [*map(frozenset, lending), frozenset()])
    state = GameState(g1, jobs, allow_unequal=True)
    assert single_source_distances(g1, source)[target] == fog_hops
    assert single_source_distances(model.build_combined_graph(g1, jobs), source)[target] == hops
    for cfg in DEEP_CONFIGS:
        for j in range(state.n2):
            rows = keyed_job_rows(j, state, cfg)
            assert _layers(rows) == reference_job_layers(j, state, cfg), (cfg, j)


# ------------------------------------------------------------ lent far pairs


def reference_job_deviation_rows(j, state, cfg):
    """Rows of job j with one vertex per other job, linked to its strategy's members."""
    adjacency = graph.closed_neighborhood_masks(state.g1)
    if cfg.transit_policy is TransitPolicy.FULL_COMBINED:
        for k, strategy in enumerate(state.level2.strategies):
            if k != j:
                bit = 1 << len(adjacency)
                for v in strategy:
                    adjacency[v] |= bit
                adjacency.append(bit + sum(1 << v for v in strategy))
    return kernel.DeviationRows(
        range(state.n1), adjacency, lambda k, sums: model._job_costs(cfg.beta * k, sums, cfg)
    )


def reference_lent_partners(g1, strategies, cfg):
    """Per fog vertex a, the OR over the strategies of a's members 3 or more hops away.

    This is how a job's rows got their partners before the lend key: one
    per-vertex OR over the other jobs' strategies, for every job.
    """
    partners = [0] * g1.n
    if cfg.transit_policy is TransitPolicy.FULL_COMBINED:
        dist = all_pairs_distances(g1)
        for s in strategies:
            for a, b in itertools.permutations(s, 2):
                if dist[a][b] >= 3:
                    partners[a] |= 1 << b
    return partners


def per_job_rows(j, state, cfg):
    """Rows of job j from the per-vertex OR of the other jobs' partners, built for every call."""
    others = state.level2.strategies[:j] + state.level2.strategies[j + 1 :]
    return kernel.DeviationRows(
        range(state.n1),
        graph.closed_neighborhood_masks(state.g1),
        lambda k, sums: model._job_costs(cfg.beta * k, sums, cfg),
        partners=reference_lent_partners(state.g1, others, cfg),
    )


_keyed_deviation = oracles._deviation


def per_job_deviation(level, player, state, cfg, oracle, memo):
    """The seam of is_nash and dynamics before the lend key: a job's rows built per call, no memo.

    Fog players take the package's path, as their rows have no key.
    """
    if level is Scope.LEVEL1:
        return _keyed_deviation(level, player, state, cfg, oracle, {})
    if oracle == "exact":
        eq._check_exact_size(state.n1)
    current = state.level2.strategies[player]
    rows = per_job_rows(player, state, cfg)
    if oracle == "exact":
        answer = oracles._exact_best(rows)
    else:
        answer = greedy._local_search(current, rows.universe, rows.evaluate)
    return (current, rows.evaluate(current), *answer)


def _with_per_job(fn, *args, **kwargs):
    return _substituted(per_job_deviation, fn, *args, **kwargs)


def _lending_state(rng):
    """A fixed fog graph, often disconnected, with empty, singleton and duplicate jobs."""
    n1 = rng.randint(0, 7)
    p = rng.choice((0.0, 0.2, 0.4, 0.7))
    g1 = Graph(n1, frozenset(e for e in itertools.combinations(range(n1), 2) if rng.random() < p))
    jobs = []
    for _ in range(rng.randint(0, 6)):
        shape = rng.choice(("empty", "singleton", "random", "all", "duplicate"))
        if shape == "empty" or not n1:
            jobs.append(frozenset())
        elif shape == "singleton":
            jobs.append(frozenset({rng.randrange(n1)}))
        elif shape == "all":
            jobs.append(frozenset(range(n1)))
        elif shape == "duplicate" and jobs:
            jobs.append(rng.choice(jobs))
        else:
            jobs.append(_random_subset(rng, range(n1), rng.choice((0.3, 0.6))))
    cfg = GameConfig(
        beta=rng.choice((0.0, 0.5, 1.5, 3.5, round(rng.uniform(0, 4), 3))),
        job_cost_type=rng.choice(tuple(JobCostType)),
        transit_policy=rng.choice(tuple(TransitPolicy)),
    )
    return GameState(g1, Level2Profile(n1, jobs), allow_unequal=True), cfg


def _lend_kind(j, state, cfg):
    """Whether the other jobs lend job j some far pairs, or none."""
    others = state.level2.strategies[:j] + state.level2.strategies[j + 1 :]
    return "lend" if any(kernel.lent_pairs(state.g1, s, cfg) for s in others) else "none"


def test_job_rows_match_one_vertex_per_job_reference():
    # A job vertex shortens a fog distance only between its members at
    # least 3 hops apart, so leaving out the jobs that lend no such pair,
    # merging equal strategies, or giving each fog vertex its lent partners
    # two hops away keeps the layers and every scanned cost the same.
    rng = random.Random(16)
    seen = set()
    for _ in range(600):
        state, cfg = _lending_state(rng)
        jobs = state.level2.strategies
        for j in range(state.n2):
            rows = keyed_job_rows(j, state, cfg)
            reference = reference_job_deviation_rows(j, state, cfg)
            assert _layers(rows) == _layers(reference), (state, cfg, j)
            assert repr(list(rows.scan())) == repr(list(reference.scan())), (state, cfg, j)
            costs = list(itertools.chain.from_iterable(rows.scan()))
            seen.update(
                {
                    ("n1", state.n1),
                    ("n2", state.n2),
                    ("inf", INF in costs),
                    ("cfg", cfg.job_cost_type, cfg.transit_policy),
                    ("empty", frozenset() in jobs),
                    ("singleton", any(len(s) == 1 for s in jobs)),
                    ("duplicate", len(set(jobs)) < len(jobs)),
                    ("lends", _lend_kind(j, state, cfg)),
                }
            )
    assert {("n1", n) for n in range(8)} | {("n2", n) for n in range(1, 7)} <= seen
    assert {("inf", True), ("empty", True), ("singleton", True), ("duplicate", True)} <= seen
    assert {("cfg", c, t) for c in JobCostType for t in TransitPolicy} <= seen
    assert {("lends", "none"), ("lends", "lend")} <= seen


def _blocks(key, n1, stride=None):
    """A packed lend or key as one partner mask per fog vertex, n1 bits from bit a * stride."""
    stride = stride or n1
    return [key >> a * stride & (1 << n1) - 1 for a in range(n1)]


def test_lent_pairs_are_the_pairs_at_least_3_hops_apart():
    g1 = Graph(6, frozenset({(0, 1), (1, 2), (2, 3)}))  # path 0..3, isolated 4 and 5
    far = kernel.lent_pairs(g1, frozenset(range(6)), GameConfig())
    dist = all_pairs_distances(g1)
    pairs = itertools.permutations(range(6), 2)
    # one block of n1 = 6 bits per fog vertex
    expected = sum(1 << a * 6 + b for a, b in pairs if dist[a][b] >= 3)
    assert far == expected and far.bit_count() == 20
    lends = [kernel.lent_pairs(g1, s, GameConfig()) for s in (frozenset({0, 1, 2}), frozenset())]
    assert lends == [0, 0]
    fog_only = GameConfig(transit_policy=TransitPolicy.FOG_ONLY)
    assert kernel.lent_pairs(g1, frozenset(range(6)), fog_only) == 0
    # a lend's blocks are the per-vertex partner masks
    assert _blocks(far, 6) == reference_lent_partners(g1, [frozenset(range(6))], GameConfig())


def test_lend_keys_are_the_per_vertex_or_of_the_other_jobs():
    # The key rule gives every job the OR of the others' lends, and its
    # blocks are the per-vertex OR of their partners that job rows read
    # before the lend key, also past 8 fog vertices.
    rng = random.Random(21)
    states = [_lending_state(rng) for _ in range(300)]
    g1 = generate("erdos_renyi", 11, p=0.15, seed=4)
    jobs = [frozenset(rng.sample(range(11), 4)) for _ in range(5)]
    states.append((GameState(g1, Level2Profile(11, jobs), allow_unequal=True), GameConfig()))
    widths = set()
    for state, cfg in states:
        g1, jobs = state.g1, state.level2.strategies
        lends = [kernel.lent_pairs(g1, s, cfg) for s in jobs]
        key_of = kernel.lend_keys(iter(lends))
        for j in range(state.n2):
            key = key_of(lends[j])
            union = 0
            for lent in lends[:j] + lends[j + 1 :]:
                union |= lent
            assert key == union, (state, cfg, j)
            reference = reference_lent_partners(g1, jobs[:j] + jobs[j + 1 :], cfg)
            assert _blocks(key, g1.n) == reference, (state, cfg, j)
            # with a memo, as the exact oracle asks, and streamed, as the greedy one
            assert key == oracles._job_key(j, state, cfg, {}) == oracles._job_key(j, state, cfg, None)
            widths.add((g1.n > 8, key > 0))
    assert widths == {(False, False), (False, True), (True, True)}


def byte_aligned_lent_pairs(g1, strategy, cfg):
    """lent_pairs as it packed a lend before its n1-bit blocks: each block in whole bytes."""
    if cfg.transit_policy is not TransitPolicy.FULL_COMBINED:
        return 0
    far, size = kernel._far_masks(g1), (g1.n + 7) // 8
    members = sum(1 << v for v in strategy)
    packed = bytearray(size * (max(strategy, default=-1) + 1))
    for a in strategy:
        packed[a * size : (a + 1) * size] = (far[a] & members).to_bytes(size, "little")
    return int.from_bytes(packed, "little")


def _lend_layout_cases():
    """(fog graph, strategies, config) with random strategies, n1 = 1-20 and 150."""
    rng = random.Random(33)
    kinds = ("path", "cycle", "star", "complete", "erdos_renyi")
    cases = []
    for n1, kind, transit in itertools.product((*range(1, 21), 150), kinds, TransitPolicy):
        if kind == "erdos_renyi":
            g1 = generate(kind, n1, p=rng.choice((0.05, 0.2, 0.5)), seed=rng.randrange(10**6))
        else:
            g1 = generate(kind, n1)
        jobs = [_random_subset(rng, range(n1), rng.choice((0.1, 0.3, 0.7))) for _ in range(4)]
        cases.append((g1, jobs, GameConfig(beta=1.5, transit_policy=transit)))
    return cases


def byte_aligned_job_rows(g1, key, cfg):
    """job_rows as it unpacked a byte-aligned key, with one to_bytes."""
    size = (g1.n + 7) // 8
    packed = key.to_bytes(size * g1.n, "little")
    partners = [int.from_bytes(packed[a * size : (a + 1) * size], "little") for a in range(g1.n)]
    return kernel.DeviationRows(
        range(g1.n),
        graph.closed_neighborhood_masks(g1),
        lambda k, sums: model._job_costs(cfg.beta * k, sums, cfg),
        partners=partners,
    )


def test_lend_layout_matches_the_byte_aligned_reference():
    # The n1-bit blocks hold the byte-aligned packer's blocks, the key rule
    # gives the same keys block for block, and a job's rows from its key
    # price every strategy as the reference rows from the reference key:
    # the same layers, the same costs by repr, scanned whole up to n1 = 10.
    widths = set()
    for g1, jobs, cfg in _lend_layout_cases():
        n1, stride = g1.n, 8 * ((g1.n + 7) // 8)
        lends = [kernel.lent_pairs(g1, s, cfg) for s in jobs]
        widths.add((n1 > 8, any(lends)))
        reference = [byte_aligned_lent_pairs(g1, s, cfg) for s in jobs]
        blocks = [_blocks(lent, n1) for lent in lends]
        assert blocks == [_blocks(lent, n1, stride) for lent in reference], (g1, cfg)
        key_of, reference_key_of = kernel.lend_keys(lends), kernel.lend_keys(reference)
        for lent, old in zip(lends, reference):
            key, old_key = key_of(lent), reference_key_of(old)
            assert _blocks(key, n1) == _blocks(old_key, n1, stride), (g1, cfg)
            rows, old_rows = kernel.job_rows(g1, key, cfg), byte_aligned_job_rows(g1, old_key, cfg)
            assert _layers(rows) == _layers(old_rows), (g1, cfg)
            costs = [rows.evaluate(s) for s in jobs]
            assert repr(costs) == repr([old_rows.evaluate(s) for s in jobs]), (g1, cfg)
            if n1 <= 10:
                assert repr(list(rows.scan())) == repr(list(old_rows.scan())), (g1, cfg)
    assert widths == {(False, False), (False, True), (True, False), (True, True)}


def test_far_masks_are_kept_per_fog_graph():
    # Every job's key on one fog graph reads the same far masks, once per
    # strategy with the memo of an is_nash call.
    g1 = generate("erdos_renyi", 30, p=0.1, seed=5)
    jobs = [frozenset(range(k, 30, 7)) for k in range(7)]
    state = GameState(g1, Level2Profile(30, jobs), allow_unequal=True)
    kernel._far_masks.cache_clear()
    memo = {}
    for j in range(7):
        keyed = kernel.job_rows(g1, oracles._job_key(j, state, GameConfig(), memo), GameConfig())
        assert _layers(keyed) == _layers(per_job_rows(j, state, GameConfig()))
    assert kernel._far_masks.cache_info()[:2] == (6, 1)  # hits, misses


def _row_vertices(monkeypatch):
    """Spy on kernel.DeviationRows; return the list of each build's vertex count."""
    built = []
    original = kernel.DeviationRows

    def spy(universe, adjacency, *args, **kwargs):
        built.append(len(adjacency))
        return original(universe, adjacency, *args, **kwargs)

    monkeypatch.setattr(kernel, "DeviationRows", spy)
    return built


def test_job_rows_do_not_grow_with_the_jobs(monkeypatch):
    # Four isolated fog vertices, so every pair is far, and forty jobs: a
    # job is priced on the n1 = 4 fog vertices and their lent partners,
    # not on one vertex per other job.
    built = _row_vertices(monkeypatch)
    g1 = Graph(4, frozenset())
    subsets = [frozenset(c) for k in range(5) for c in itertools.combinations(range(4), k)]
    shapes = {
        "one strategy": [frozenset(range(4))] * 40,
        "every subset": [subsets[i % 16] for i in range(40)],
        "singletons": [frozenset(range(4))] + [frozenset({1})] * 39,
    }
    sizes = {}
    for name, jobs in shapes.items():
        state = GameState(g1, Level2Profile(4, jobs), allow_unequal=True)
        built.clear()
        rows = [keyed_job_rows(j, state, GameConfig()) for j in (0, 1)]
        sizes[name] = built[:]
        # beta 1 and one hop to 0, three to each other vertex over a lent pair
        assert rows[1].evaluate(frozenset({0})) == 1 + 1 + 3 * 3
    # n1 vertices whether the others lend every pair or, for job 0
    # against singletons, none
    assert sizes == {"one strategy": [4, 4], "every subset": [4, 4], "singletons": [4, 4]}


def test_job_rows_hold_only_the_fog_vertices(monkeypatch):
    # Six isolated fog vertices and one job on every subset: the 57
    # lending strategies lend all 15 pairs, and still the rows hold the
    # n1 = 6 fog vertices alone.
    built = _row_vertices(monkeypatch)
    jobs = [frozenset(c) for k in range(7) for c in itertools.combinations(range(6), k)]
    state = GameState(Graph(6, frozenset()), Level2Profile(6, jobs), allow_unequal=True)
    rows = keyed_job_rows(0, state, GameConfig())
    assert built == [6]
    # beta 1 and one hop to 0, three to each other vertex over a lent pair
    assert rows.evaluate(frozenset({0})) == 1 + 1 + 5 * 3


def test_job_key_holds_no_lent_int_per_job():
    # A lent int spans up to n1 * n1 bits, 2.8 KiB here: one per other job
    # would take about 5 MiB.  Without a memo, as the greedy oracle asks,
    # the lends stream through the key rule, which keeps the pairs lent
    # once and twice, and the rows unpack one key.
    g1 = generate("erdos_renyi", 150, p=0.02, seed=3)
    rng = random.Random(3)
    jobs = [frozenset(rng.sample(range(150), 5)) for _ in range(2000)]
    state = GameState(g1, Level2Profile(150, jobs), allow_unequal=True)
    tracemalloc.start()
    try:
        kernel.job_rows(g1, oracles._job_key(0, state, GameConfig(), None), GameConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ------------------------------------------------- keyed against per-job path


def _many_jobs_state(rng):
    """A small state with 2 to 12 jobs drawn from a pool of three strategies.

    The jobs share strategies, so they share lend keys, and the per-call
    memo of is_nash and dynamics answers some of them from one entry.
    """
    state, cfg = _random_state(rng)
    pool = [_random_subset(rng, range(state.n1), 0.5) for _ in range(3)]
    jobs = tuple(rng.choice(pool) for _ in range(rng.randint(2, 12)))
    return GameState(state.level1, Level2Profile(state.n1, jobs), allow_unequal=True), cfg


@pytest.mark.parametrize("oracle", ["exact", "greedy"])
def test_keyed_path_matches_the_per_job_path(oracle, monkeypatch):
    builds = []
    monkeypatch.setattr(oracles, "job_rows", lambda *args: builds.append(1) or kernel.job_rows(*args))
    rng = random.Random(29)
    seen = set()
    per_job = SEAM_CALLS[per_job_deviation]
    for index in range(120):
        state, cfg = _many_jobs_state(rng)
        for scope in _scopes(state):
            if oracle == "exact":
                fast = is_nash(state, cfg, scope)
                assert repr(fast) == repr(_with_per_job(is_nash, state, cfg, scope)), (state, cfg)
                seen.add(("nash", fast[0]))
            kwargs = dict(
                schedule=("round_robin", "random_permutation")[index % 2],
                seed=index,
                max_rounds=(1, 6)[index % 3 > 0],
                oracle=oracle,
            )
            builds.clear()
            fast = best_response_dynamics(state, cfg, scope, **kwargs)
            slow = _with_per_job(best_response_dynamics, state, cfg, scope, **kwargs)
            assert fast == slow, (state, cfg, scope, kwargs)
            assert repr(fast.moves) == repr(slow.moves)
            levels = [move.level for move in fast.moves]
            asked = state.n2 * fast.rounds_used if scope is not Scope.LEVEL1 else 0
            seen.update(
                {
                    ("cfg", cfg.job_cost_type, cfg.transit_policy),
                    ("schedule", kwargs["schedule"]),
                    ("outcome", fast.outcome),
                    # a fog move changes g1, and so every key the jobs then ask for
                    ("g1 moved", scope is Scope.BOTH and Scope.LEVEL1 in levels),
                    ("shared", oracle == "exact" and len(builds) < asked),
                }
            )
    assert {("cfg", c, t) for c in JobCostType for t in TransitPolicy} <= seen
    assert {("schedule", "round_robin"), ("schedule", "random_permutation")} <= seen
    assert {("outcome", DynamicsOutcome.CONVERGED), ("outcome", DynamicsOutcome.BUDGET_EXHAUSTED)} <= seen
    assert ("g1 moved", True) in seen
    assert SEAM_CALLS[per_job_deviation] > per_job
    if oracle == "exact":
        assert {("nash", True), ("nash", False), ("shared", True)} <= seen


def test_path5_cycle_states_match_the_per_job_path():
    # The level-2 better-response cycle on path 5 (see test_equilibrium):
    # on every state of the cycle both jobs get the per-job rows, and
    # dynamics from its start makes the same moves.
    g1 = generate("path", 5)
    cfg = GameConfig(beta=2.5, job_cost_type=JobCostType.TYPE_II)
    a, b = frozenset({0, 1, 2}), frozenset({4})
    per_job = SEAM_CALLS[per_job_deviation]
    for jobs in [(a, a | b), (b, a | b), (b, a), (a | b, a), (a | b, b), (a, b)]:
        state = GameState(g1, Level2Profile(5, jobs), allow_unequal=True)
        for j in range(2):
            assert _layers(keyed_job_rows(j, state, cfg)) == _layers(per_job_rows(j, state, cfg))
        for schedule in ("round_robin", "random_permutation"):
            fast = best_response_dynamics(state, cfg, Scope.LEVEL2, schedule=schedule)
            assert fast == _with_per_job(best_response_dynamics, state, cfg, Scope.LEVEL2, schedule=schedule)
        assert is_nash(state, cfg, Scope.LEVEL2) == _with_per_job(is_nash, state, cfg, Scope.LEVEL2)
    assert SEAM_CALLS[per_job_deviation] > per_job


def test_is_nash_builds_one_job_rows_per_lend_key(monkeypatch):
    # 1000 jobs on {1, 4, 7, 10} of path 12 all have one key, so is_nash
    # builds at most 2 job rows where a per-job pass built 1000.
    built = _row_vertices(monkeypatch)
    jobs = Level2Profile(12, (frozenset({1, 4, 7, 10}),) * 1000)
    state = GameState(generate("path", 12), jobs, allow_unequal=True)
    cfg = GameConfig(beta=3.5)
    stable, witness = is_nash(state, cfg, Scope.LEVEL2)
    assert 1 <= len(built) <= 2
    small = GameState(state.g1, Level2Profile(12, jobs.strategies[:5]), allow_unequal=True)
    per_job = SEAM_CALLS[per_job_deviation]
    assert (stable, witness) == _with_per_job(is_nash, small, cfg, Scope.LEVEL2)
    assert SEAM_CALLS[per_job_deviation] > per_job


def test_dynamics_memo_stays_linear_in_the_jobs(monkeypatch):
    # A dynamics run asks oracles._deviation about every job of each new state
    # with one memo; here 300 moves, each a job or a fog player taking a
    # random strategy, meet far more (g1, key) pairs than there are jobs,
    # and the memo still holds O(n2) entries.
    builds = []
    monkeypatch.setattr(oracles, "job_rows", lambda *args: builds.append(1) or kernel.job_rows(*args))
    rng = random.Random(31)
    n1, n2 = 8, 4
    level1 = Level1Profile(tuple(frozenset({(i + 1) % n1}) for i in range(n1)))
    jobs = Level2Profile(n1, tuple(_random_subset(rng, range(n1), 0.5) for _ in range(n2)))
    state = GameState(level1, jobs, allow_unequal=True)
    cfg = GameConfig(alpha=0.6, beta=0.4)
    memo = {}
    sizes = []
    for _ in range(300):
        if rng.random() < 0.2:
            i = rng.randrange(n1)
            state = state.with_level1_strategy(i, _random_subset(rng, [v for v in range(n1) if v != i], 0.3))
        else:
            state = state.with_level2_strategy(rng.randrange(n2), _random_subset(rng, range(n1), 0.5))
        for j in range(n2):
            answer = oracles._deviation(Scope.LEVEL2, j, state, cfg, "exact", memo)
            assert answer == per_job_deviation(Scope.LEVEL2, j, state, cfg, "exact", {})
            sizes.append(len(memo))
    # over 4 * n2 entries a new state empties the memo, then adds its
    # slot and at most n2 lends and n2 answers
    assert len(builds) > 50 * n2
    assert max(sizes) <= 6 * n2 + 1
