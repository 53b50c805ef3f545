"""Lend-class engine: differential tests against the profile scans it replaced.

The reference functions below are the two profile scans that
social_optimum_level2 (exhaustive_joint), enumerate_nash_level2 and
empirical_poa ran before the cost-table scan: one evaluates the social cost
of every profile, the other solves every job's best response in every
profile by calling job_player_cost on each candidate.  Both go through
model.job_player_cost only, never through the equilibrium module's cost
kernel.  Results must match exactly, including which exception is raised
first.

Those references are too slow past a few thousand profiles, so two more
cover larger shapes.  _level2_scan is the one-pass profile scan the
analyses read before the class walk: cost tables keyed by the far pairs
the other jobs lend, every profile visited in product order.  _multiset_scan
is that scan as it was before its tables were keyed by lent pairs, keyed
instead by the sorted multiset of the other jobs' candidate indices, or ()
under FOG_ONLY, each table priced against the OR of those candidates' far
pairs.  Both share the cost-table fill with the engine under test
(kernel.job_rows, scanned whole), so they check its keys, its
per-class reading of the tables and the product order of its reported
profiles.
"""

import itertools
import math
import random
import tracemalloc
from types import SimpleNamespace

import corpus
import pytest

from foggame import equilibrium, joint, kernel, model
from foggame.equilibrium import (
    PoAReport,
    empirical_poa,
    enumerate_nash_level2,
    social_optimum_level2,
)
from foggame.errors import GuardExceeded, NoEquilibriumError
from foggame.generators import generate
from foggame.graph import Graph, is_connected
from foggame.model import (
    GameConfig,
    GameState,
    JobCostType,
    Level2Profile,
    TransitPolicy,
    social_cost_level2,
)
from foggame.parsing import _graph_builder

# ------------------------------------------------------------------ reference


def _joint_candidates(n1, n2):
    """Per-job strategies as tuples in scan order, () alone without jobs, as the walk makes them."""
    if not n2:
        return [()]
    return [c for k in range(n1 + 1) for c in itertools.combinations(range(n1), k)]


def _profile(n1, strategy_of, indices):
    return Level2Profile(n1, tuple(strategy_of[i] for i in indices))


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


def _reference_guard(n1, n2):
    # The scan visits 2^(n1*n2) profiles, minutes past 2^15, so the
    # references take shapes up to n1 * n2 = 15 only, whatever the engine's
    # guard admits.
    if n2 < 0:
        raise ValueError(f"n2 must be non-negative, got {n2}")
    assert n1 * n2 <= 15, f"the reference scans are too slow for {n1}x{n2}"


def _reference_best_cost(j, state, cfg):
    return min(
        model.job_player_cost(j, state.with_level2_strategy(j, cand), cfg)
        for cand in _reference_candidates(state.n1)
    )


def reference_social_optimum(g1, n2, cfg):
    _reference_guard(g1.n, n2)
    best_cost = 0.0
    best_profile = None
    for profile in _reference_profiles(g1.n, n2):
        cost = social_cost_level2(GameState(g1, profile, allow_unequal=True), cfg)
        if best_profile is None or cost < best_cost:
            best_cost, best_profile = cost, profile
    return best_cost, best_profile


def reference_enumerate_nash(g1, n2, cfg):
    _reference_guard(g1.n, n2)
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


def reference_poa(g1, n2, cfg):
    optimum_cost, optimum_profile = reference_social_optimum(g1, n2, cfg)
    equilibria = reference_enumerate_nash(g1, n2, cfg)
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
    if optimum_cost == math.inf:
        raise ValueError("price of anarchy undefined for infinite optimum cost")
    return PoAReport(
        optimum_cost=optimum_cost,
        optimum_profile=optimum_profile,
        worst_ne_cost=worst_cost,
        worst_ne_profile=worst_profile,
        poa=worst_cost / optimum_cost,
        ne_count=len(equilibria),
    )


def _table(g1, lent, cfg):
    """A job's cost for each candidate, in scan order, against the far pairs in lent."""
    rows = kernel.job_rows(g1, lent, cfg)
    return tuple(itertools.chain.from_iterable(rows.scan()))


def _level2_scan(g1, cands, n2, cfg):
    """Every level-2 profile once, as (candidate indices, social cost, is NE).

    Profiles come in itertools.product order over indices into cands.  A
    job's cost table is keyed by the OR of the far pairs the other jobs
    lend (see kernel.lent_pairs).  Two ORs over a profile give the bits
    lent `once` and `twice` or more, and a job's key is `once` without the
    bits only its own candidate lends.  A profile is an
    equilibrium iff no job's cost exceeds its table minimum.
    """
    lends = [kernel.lent_pairs(g1, c, cfg) for c in cands]
    tables = {}
    for indices in itertools.product(range(len(cands)), repeat=n2):
        once = twice = 0
        for own in indices:
            lent = lends[own]
            twice |= once & lent
            once |= lent
        costs = []
        stable = True
        for own in indices:
            key = once & ~(lends[own] & ~twice)
            table = tables.get(key)
            if table is None:
                row = _table(g1, key, cfg)
                table = tables[key] = (row, min(row))
            row, best = table
            costs.append(row[own])
            if best < row[own]:
                stable = False
        yield indices, sum(costs), stable


def _scan_setup(g1, n2):
    equilibrium._check_joint_size(g1.n, n2)
    return _joint_candidates(g1.n, n2)


def scan_social_optimum(g1, n2, cfg, scan=_level2_scan):
    # The first profile with the strictly smallest cost wins.
    cands = _scan_setup(g1, n2)
    best_cost = 0.0
    best = None
    for indices, cost, _ in scan(g1, cands, n2, cfg):
        if best is None or cost < best_cost:
            best_cost, best = cost, indices
    return best_cost, _profile(g1.n, cands, best)


def scan_enumerate_nash(g1, n2, cfg, scan=_level2_scan):
    cands = _scan_setup(g1, n2)
    return [
        (_profile(g1.n, cands, indices), cost)
        for indices, cost, stable in scan(g1, cands, n2, cfg)
        if stable
    ]


def scan_poa(g1, n2, cfg, scan=_level2_scan):
    # The first strict minimum, and the first strict maximum among equilibria.
    cands = _scan_setup(g1, n2)
    optimum_cost = worst_cost = 0.0
    optimum = worst = None
    ne_count = 0
    for indices, cost, stable in scan(g1, cands, n2, cfg):
        if optimum is None or cost < optimum_cost:
            optimum_cost, optimum = cost, indices
        if stable:
            ne_count += 1
            if worst is None or cost > worst_cost:
                worst_cost, worst = cost, indices
    if worst is None:
        raise NoEquilibriumError(f"no pure level-2 equilibrium (n1={g1.n}, n2={n2})")
    if optimum_cost <= 0:
        raise ValueError(
            f"price of anarchy undefined for non-positive optimum cost {optimum_cost}"
        )
    if optimum_cost == math.inf:
        raise ValueError("price of anarchy undefined for infinite optimum cost")
    return PoAReport(
        optimum_cost=optimum_cost,
        optimum_profile=_profile(g1.n, cands, optimum),
        worst_ne_cost=worst_cost,
        worst_ne_profile=_profile(g1.n, cands, worst),
        poa=worst_cost / optimum_cost,
        ne_count=ne_count,
    )


def _multiset_scan(g1, cands, n2, cfg):
    # Keys: the sorted indices of the other jobs, or () under FOG_ONLY.
    separable = cfg.transit_policy is TransitPolicy.FOG_ONLY
    tables = {}
    for indices in itertools.product(range(len(cands)), repeat=n2):
        ordered = indices if separable else sorted(indices)
        by_own = {}
        for p, own in enumerate(ordered):
            if own in by_own:
                continue
            others = () if separable else tuple(ordered[:p] + ordered[p + 1 :])
            table = tables.get(others)
            if table is None:
                lent = 0
                for i in others:
                    lent |= kernel.lent_pairs(g1, cands[i], cfg)
                row = _table(g1, lent, cfg)
                table = tables[others] = (row, min(row))
            by_own[own] = table
        costs = []
        stable = True
        for own in indices:
            row, best = by_own[own]
            costs.append(row[own])
            if best < row[own]:
                stable = False
        yield indices, sum(costs), stable


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


_ENGINE = (social_optimum_level2, enumerate_nash_level2, empirical_poa)

# ---------------------------------------------------------------------- tests


def test_scan_matches_reference_on_random_instances():
    rng = random.Random(2024)
    for _ in range(60):
        _assert_same(*_random_instance(rng))


@pytest.mark.parametrize("transit", tuple(TransitPolicy))
@pytest.mark.parametrize("cost_type", tuple(JobCostType))
@pytest.mark.parametrize(
    "g1, n2, beta",
    [
        (generate("path", 3), 3, 1.5),
        (generate("star", 4), 2, 1.5),
        (generate("complete", 2), 4, 1.5),
        (Graph(1, frozenset()), 9, 1.5),
        (generate("path", 6), 1, 1.5),
        (generate("cycle", 3), 0, 1.5),
        (Graph(3, frozenset()), 2, 1.5),
        # Under TYPE_I the optimum is an unsorted member of its orbit (see
        # test_scan_keeps_product_order_float_sums).
        (Graph(3, frozenset()), 3, 0.501),
    ],
    ids=[
        "path3x3", "star4x2", "complete2x4", "single9", "path6x1", "cycle3x0", "empty3x2",
        "empty3x3",
    ],
)
def test_scan_matches_reference_on_named_shapes(g1, n2, beta, cost_type, transit):
    _assert_same(g1, n2, GameConfig(beta=beta, job_cost_type=cost_type, transit_policy=transit))


def test_scan_keeps_product_order_float_sums():
    # Three isolated fog vertices: a job buying all of them lends the
    # others two-hop paths between them.  The optimum is not the sorted
    # member of its orbit, because the social cost is a float sum in job
    # order and the orbit's orders sum to different floats.
    g1 = Graph(3, frozenset())
    cfg = GameConfig(beta=0.501, job_cost_type=JobCostType.TYPE_I)
    cost, profile = social_optimum_level2(g1, 3, cfg)
    assert profile.strategies == ({0}, {0, 1, 2}, {0})
    state = GameState(g1, profile, allow_unequal=True)
    costs = [model.job_player_cost(j, state, cfg) for j in range(3)]
    assert cost == sum(costs)
    assert len({sum(order) for order in itertools.permutations(costs)}) > 1


def test_scan_matches_reference_on_non_positive_optimum():
    g1 = Graph(1, frozenset())
    cfg = GameConfig(beta=1.0, job_cost_type=JobCostType.TYPE_I)
    with pytest.raises(ValueError, match="non-positive optimum"):
        empirical_poa(g1, 1, cfg)
    _assert_same(g1, 1, cfg)
    with pytest.raises(ValueError, match="non-positive optimum"):
        empirical_poa(generate("path", 3), 0, GameConfig())
    _assert_same(generate("path", 3), 0, GameConfig())


def test_scan_matches_reference_on_infinite_optimum():
    # Every job cost is at least beta = 1e308, and three of them overflow
    # the float sum, so every profile costs inf and the ratio would be NaN.
    cfg = GameConfig(beta=1e308)
    with pytest.raises(ValueError, match="infinite optimum"):
        empirical_poa(generate("path", 3), 3, cfg)
    _assert_same(generate("path", 3), 3, cfg)


def test_scan_matches_reference_on_guard():
    # Without jobs one empty profile is the whole scan, at any n1.
    _assert_same(generate("path", 30), 0, GameConfig())
    # Path 6 has 28 lend classes, so 4 jobs would read 28^4 vector entries
    # and fill up to 28^3 tables of 2^6 costs; the walk refuses at its
    # 11th class, on 11^3 * (4*11 + 2^6), before its first vector.
    with pytest.raises(GuardExceeded, match=r"size 143748 > limit 131072"):
        empirical_poa(generate("path", 6), 4, GameConfig())
    # One job on path 17 needs one table of 2^17 costs: refused on the counts.
    with pytest.raises(GuardExceeded, match=r"size 131073 > limit 131072"):
        social_optimum_level2(generate("path", 17), 1, GameConfig())


def _predicted_work(n1, n2, classes):
    # equilibrium._check_joint_size's W, unclamped: n2 reads per vector of
    # classes, 2^n1 costs per table, at most classes^(n2-1) tables.
    return classes ** (n2 - 1) * (n2 * classes + 2**n1) if n2 else 0


def _fog_graph(kind, n1):
    return Graph(n1, frozenset()) if kind == "edgeless" else generate(kind, n1)


@pytest.mark.parametrize("transit", tuple(TransitPolicy))
@pytest.mark.parametrize("kind", ["path", "cycle", "star", "complete", "edgeless"])
def test_class_walk_reads_no_more_than_its_predicted_work(monkeypatch, kind, transit):
    # For each shape the walk refuses at a guard one below its prediction,
    # before any table; at the prediction it runs, and its L^n2 vectors of
    # n2 reads plus its tables of 2^n1 costs stay within it.  Shapes past
    # the default guard are only refused, as they would be too slow to walk.
    cfg = GameConfig(beta=1.5, transit_policy=transit)
    budget = equilibrium.JOINT_ENUMERATION_GUARD
    calls = _count_fills(monkeypatch)
    for n1, n2 in itertools.product(range(0 if kind == "edgeless" else 1, 7), range(5)):
        g1 = _fog_graph(kind, n1)
        cands = _joint_candidates(n1, n2)
        classes = len({kernel.lent_pairs(g1, c, cfg) if n2 > 1 else 0 for c in cands})
        if kind == "edgeless" and n2 > 1 and transit is TransitPolicy.FULL_COMBINED:
            assert classes == 2**n1 - n1  # every set of two or more vertices is its own
        work = _predicted_work(n1, n2, classes)
        monkeypatch.setattr(equilibrium, "JOINT_ENUMERATION_GUARD", work - 1)
        with pytest.raises(GuardExceeded) as refused:
            next(joint._class_walk(g1, n2, cfg))
        assert (refused.value.actual, calls) == (work, []), (n1, n2)
        if work > budget:
            continue
        monkeypatch.setattr(equilibrium, "JOINT_ENUMERATION_GUARD", work)
        walk = joint._class_walk(g1, n2, cfg)
        assert next(walk) == cands  # the candidates first, in scan order
        vectors = sum(1 for _ in walk)
        assert vectors == classes**n2
        assert n2 * vectors + 2**n1 * len(calls) <= work, (n1, n2)
        calls.clear()


def test_every_shape_of_at_most_15_job_bits_fits_at_the_worst_class_count():
    # A set of fewer than two vertices lends no far pair, so no fog graph
    # has more than 2^n1 - n1 lend classes, the edgeless one's count.  The
    # former guard admitted n1 * n2 <= 15; every such shape with fog
    # vertices still fits, the largest being edgeless 5x3.
    shapes = [(n1, n2) for n1 in range(1, 16) for n2 in range(15 // n1 + 1)]
    for n1, n2 in shapes:
        equilibrium._check_joint_size(n1, n2, 2**n1 - n1)
    works = {shape: _predicted_work(*shape, 2 ** shape[0] - shape[0]) for shape in shapes}
    assert max(works, key=works.get) == (5, 3)
    assert works[5, 3] == 27**2 * (3 * 27 + 2**5) == 82377


def _count_lends(monkeypatch):
    """Replace kernel.lent_pairs by a wrapper; return the list of the lends it gave."""
    lends = []
    original = kernel.lent_pairs

    def counted(*args):
        lends.append(original(*args))
        return lends[-1]

    monkeypatch.setattr(kernel, "lent_pairs", counted)
    return lends


def test_walk_refuses_as_its_classes_appear(monkeypatch):
    # The walk checks the guard each time a class appears, so a refused
    # shape groups only the candidates up to the first class past the
    # guard.  Path 16x16 fits the counts' one class and is refused at its
    # second, the 20th candidate {0, 3}, where a whole grouping makes
    # 65,536 calls; path 6x4 at its 11th class of 28.
    lends = _count_lends(monkeypatch)
    with pytest.raises(GuardExceeded):
        social_optimum_level2(generate("path", 16), 16, GameConfig())
    assert (len(lends), len(set(lends))) == (20, 2)
    lends.clear()
    with pytest.raises(GuardExceeded, match=r"size 143748 > limit 131072"):
        empirical_poa(generate("path", 6), 4, GameConfig())
    assert len(set(lends)) == 11 and lends[-1] not in lends[:-1]


@pytest.mark.parametrize("analysis", _ENGINE, ids=lambda fn: fn.__name__)
def test_a_walk_refused_at_its_second_class_allocates_little(analysis):
    # Path 16x16 is refused at its second class, the 20th candidate: the
    # walk makes its candidates as it groups them, so a refusal allocates
    # no list of all 65,536 (several MiB).  foggame.joint, imported above,
    # is compiled before the trace starts.
    g1 = generate("path", 16)
    tracemalloc.start()
    try:
        with pytest.raises(GuardExceeded, match=r"size 2148532224 > limit 131072"):
            analysis(g1, 16, GameConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 << 10, peak


def _reference_class_count(g1, n2, cfg):
    """The lend classes of g1 for n2 jobs, from a grouping of every candidate set."""
    if n2 < 2:
        return 1
    return len({kernel.lent_pairs(g1, c, cfg) for c in _reference_candidates(g1.n)})


def test_walk_refuses_exactly_the_corpus_shapes_its_class_count_refuses(monkeypatch):
    # On every shape of the outcome corpus (tests/corpus.py), under the
    # default guard and two lower ones, the walk refuses before its first
    # vector iff the guard refuses the work of the shape's whole class
    # count, and then names the work of the classes it found, at most that.
    shapes = {(kind, n1, n2, transit) for _, kind, n1, n2, _, transit, _ in corpus.shapes()}
    walks = []
    for kind, n1, n2, transit in sorted(shapes):
        g1 = _graph_builder(corpus.graph_section(kind, n1))[1]()
        cfg = GameConfig(transit_policy=TransitPolicy(transit))
        work = _predicted_work(n1, n2, _reference_class_count(g1, n2, cfg))
        walks.append((g1, n2, cfg, work))
    for guard in (2**17, 2**10, 2**6):
        monkeypatch.setattr(equilibrium, "JOINT_ENUMERATION_GUARD", guard)
        refusals = 0
        for g1, n2, cfg, work in walks:
            try:
                next(joint._class_walk(g1, n2, cfg))
            except GuardExceeded as refused:
                assert guard < refused.actual <= work, (g1, n2, cfg)
                refusals += 1
            else:
                assert work <= guard, (g1, n2, cfg)
        assert refusals, guard


def test_an_equilibrium_listing_shares_one_frozenset_per_candidate():
    # Complete 3x3 at beta = 3: every job on one vertex, 27 equilibria
    # over 3 strategies, each one frozenset in every profile holding it.
    listing = enumerate_nash_level2(generate("complete", 3), 3, GameConfig(beta=3.0))
    first = {}
    for profile, _ in listing:
        for strategy in profile.strategies:
            assert first.setdefault(strategy, strategy) is strategy
    assert (len(listing), len(first)) == (27, 3)


@pytest.mark.parametrize("beta", [0.5, 1.5, 3.5])
@pytest.mark.parametrize("cost_type", tuple(JobCostType))
@pytest.mark.parametrize(
    "kind, n", [("complete", 10), ("star", 12), ("cycle", 5), ("path", 14), ("complete", 1)]
)
def test_independent_jobs_match_the_lone_job_oracle(kind, n, cost_type, beta):
    # Under FOG_ONLY no job lends another a path, so the jobs are
    # independent: one lend class, one table.  The optimum is n lone best
    # responses, the equilibria are the profiles of best responses, and
    # every equilibrium is optimal.  The oracle engine prices the lone job.
    # On one fog vertex TYPE_I at beta = 0.5 costs 0.5 - 1, a negative
    # optimum.
    g1 = generate(kind, n)
    cfg = GameConfig(beta=beta, job_cost_type=cost_type, transit_policy=TransitPolicy.FOG_ONLY)
    state = GameState(g1, Level2Profile(n, (frozenset(),) * n))
    c = equilibrium.best_response_job_exact(0, state, cfg)[1]
    m = sum(row.count(c) for row in kernel.job_rows(g1, 0, cfg).scan())
    optimum = sum([c] * n)
    assert social_optimum_level2(g1, n, cfg)[0] == optimum
    if optimum <= 0:
        with pytest.raises(ValueError, match="non-positive optimum"):
            empirical_poa(g1, n, cfg)
        return
    report = empirical_poa(g1, n, cfg)
    assert report.optimum_cost == report.worst_ne_cost == optimum
    assert (report.poa, report.ne_count) == (1.0, m**n)


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


def _rps_social_cost(state, cfg):
    return sum(_rps_cost(j, state, cfg) for j in range(state.n2))


def _rps_rows(g1, key, cfg):
    # Every candidate lends its own bit and the key reaches here as it is
    # (see the test below), so a job's key is the other job's bit.
    cands = _reference_candidates(g1.n)
    other = cands[key.bit_length() - 1]
    costs = [
        _rps_cost(0, GameState(g1, Level2Profile(g1.n, (c, other)), allow_unequal=True), cfg)
        for c in cands
    ]
    return SimpleNamespace(scan=lambda: iter([costs]))


def test_scan_matches_reference_without_equilibrium(monkeypatch):
    # The reference prices jobs through job_player_cost, the scan through
    # the cost tables; both get the same substituted cost.  Path 2 has no
    # far pairs, so one table would serve the whole scan; one lent bit per
    # candidate keys each table by the other job's strategy, which the
    # substituted cost reads.  model.social_cost_level2 prices every job in
    # one pass, not through job_player_cost, so the reference's social cost
    # is replaced by the sum of the substituted costs.
    monkeypatch.setattr(model, "job_player_cost", _rps_cost)
    monkeypatch.setitem(globals(), "social_cost_level2", _rps_social_cost)
    monkeypatch.setattr(kernel, "job_rows", _rps_rows)
    monkeypatch.setattr(
        kernel,
        "lent_pairs",
        lambda g1, cand, cfg: 1 << _reference_candidates(g1.n).index(frozenset(cand)),
    )
    g1 = generate("path", 2)
    with pytest.raises(NoEquilibriumError):
        empirical_poa(g1, 2, GameConfig())
    assert enumerate_nash_level2(g1, 2, GameConfig()) == []
    _assert_same(g1, 2, GameConfig())


def _count_fills(monkeypatch):
    """Replace kernel.job_rows by a wrapper; return the list that counts its calls."""
    calls = []
    original = kernel.job_rows

    def counted(*args):
        calls.append(None)
        return original(*args)

    monkeypatch.setattr(kernel, "job_rows", counted)
    return calls


@pytest.mark.parametrize(
    "kind, n1, n2, beta, transit, fills",
    [
        ("path", 4, 3, 3.5, TransitPolicy.FULL_COMBINED, 2),
        ("star", 4, 3, 3.5, TransitPolicy.FULL_COMBINED, 1),
        ("complete", 4, 3, 3.5, TransitPolicy.FULL_COMBINED, 1),
        ("path", 6, 2, 1.5, TransitPolicy.FULL_COMBINED, 28),
        ("cycle", 6, 2, 1.5, TransitPolicy.FULL_COMBINED, 8),
        ("path", 2, 7, 1.5, TransitPolicy.FULL_COMBINED, 1),
        ("path", 8, 1, 1.5, TransitPolicy.FULL_COMBINED, 1),
        ("path", 4, 3, 3.5, TransitPolicy.FOG_ONLY, 1),
        ("path", 6, 2, 1.5, TransitPolicy.FOG_ONLY, 1),
    ],
)
def test_empirical_poa_cost_table_fills(monkeypatch, kind, n1, n2, beta, transit, fills):
    # One cost table of 2^n1 entries per set of far pairs (at least 3 hops
    # apart in the fog graph) the other jobs lend.  Path 4 has the one far
    # pair {0, 3}, path 6 six and cycle 6 three; star 4, complete 4 and
    # path 2 have diameter <= 2, and under FOG_ONLY or with one job no
    # pair is lent, so one table serves the scan.  One table per multiset
    # of the other jobs' strategies bounds it.
    calls = _count_fills(monkeypatch)
    empirical_poa(generate(kind, n1), n2, GameConfig(beta=beta, transit_policy=transit))
    assert len(calls) == fills
    assert fills <= math.comb(2**n1 + n2 - 2, n2 - 1)


_P2_P3 = Graph(5, frozenset({(0, 1), (2, 3), (3, 4)}))


@pytest.mark.parametrize("transit", tuple(TransitPolicy))
@pytest.mark.parametrize("cost_type", tuple(JobCostType))
@pytest.mark.parametrize(
    "g1, n2",
    [
        (generate("path", 5), 2),
        (generate("path", 6), 2),
        (generate("cycle", 7), 2),
        (generate("path", 4), 4),
        (generate("path", 3), 5),
        (_P2_P3, 2),
        (_P2_P3, 3),
        (generate("erdos_renyi", 5, p=0.4, seed=1), 3),
        (generate("erdos_renyi", 6, p=0.5, seed=2), 2),
        (generate("erdos_renyi", 6, p=0.4, seed=1), 2),
    ],
    ids=[
        "path5x2", "path6x2", "cycle7x2", "path4x4", "path3x5", "p2p3x2", "p2p3x3",
        "er5diam3x3", "er6diam4x2", "er6diam5x2",
    ],
)
def test_scan_matches_multiset_scan(monkeypatch, g1, n2, cost_type, transit):
    # The Erdos-Renyi seeds give connected graphs of diameter 3, 4 and 5.  Each
    # scan runs once, and its profiles are compared and replayed to the
    # three analyses, which the engine must match; each engine analysis
    # fills as many tables as the lent-pair-keyed scan.
    cfg = GameConfig(beta=1.5, job_cost_type=cost_type, transit_policy=transit)
    calls = _count_fills(monkeypatch)
    streams, outcomes, fills = [], [], []
    for scan in (_level2_scan, _multiset_scan):
        calls.clear()
        profiles = list(scan(g1, _joint_candidates(g1.n, n2), n2, cfg))
        fills.append(len(calls))
        streams.append(profiles)
        outcomes.append(_replayed(g1, n2, cfg, profiles))
    calls.clear()
    engine = [_outcome(fn, g1, n2, cfg) for fn in _ENGINE]
    assert streams[0] == streams[1]
    assert outcomes[0] == outcomes[1] == engine
    assert 0 < fills[0] <= fills[1]  # a patch that misses the engine counts none
    assert len(calls) == len(_ENGINE) * fills[0]


_CONFIGS = [
    GameConfig(beta=beta, job_cost_type=cost_type, transit_policy=transit)
    for cost_type, betas in ((JobCostType.TYPE_I, (0.5, 0.501)), (JobCostType.TYPE_II, (1.5, 3.5)))
    for beta in betas
    for transit in TransitPolicy
]
_CONFIG_IDS = [f"{c.job_cost_type.value}-{c.beta}-{c.transit_policy.value}" for c in _CONFIGS]


def _replayed(g1, n2, cfg, profiles):
    """The three analyses' outcomes as the profile scan gave them, from its stream."""
    return [
        _outcome(fn, g1, n2, cfg, lambda *args: iter(profiles))
        for fn in (scan_social_optimum, scan_enumerate_nash, scan_poa)
    ]


def _assert_engine_matches_scan(g1, n2, cfg):
    # Costs and counts by repr, the reported profiles, the equilibrium
    # list in order, and which exception is raised.
    profiles = list(_level2_scan(g1, _scan_setup(g1, n2), n2, cfg))
    engine = [_outcome(fn, g1, n2, cfg) for fn in _ENGINE]
    assert engine == _replayed(g1, n2, cfg, profiles), (g1, n2, cfg)


def _connected_graphs(n):
    """Every labelled connected graph on n vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    for k in range(len(pairs) + 1):
        for edges in itertools.combinations(pairs, k):
            g = Graph(n, frozenset(edges))
            if is_connected(g):
                yield g


@pytest.mark.parametrize("cfg", _CONFIGS, ids=_CONFIG_IDS)
def test_engine_matches_profile_scan_on_small_connected_graphs(cfg):
    graphs = [g for n1 in (1, 2, 3) for g in _connected_graphs(n1)]
    assert len(graphs) == 6
    for g1 in graphs:
        for n2 in range(4):
            _assert_engine_matches_scan(g1, n2, cfg)


# The six connected graphs on four vertices, up to isomorphism.
_FOUR_VERTEX = {
    "path": [(0, 1), (1, 2), (2, 3)],
    "star": [(0, 1), (0, 2), (0, 3)],
    "cycle": [(0, 1), (1, 2), (2, 3), (0, 3)],
    "paw": [(0, 1), (0, 2), (1, 2), (2, 3)],
    "diamond": [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)],
    "complete": list(itertools.combinations(range(4), 2)),
}


@pytest.mark.parametrize("name", list(_FOUR_VERTEX))
def test_engine_matches_profile_scan_on_four_vertex_graphs_with_four_jobs(name):
    # 2^16 profiles, one past the former n1 * n2 <= 15 guard; at most 2
    # lend classes, so at most 2^3 * (4*2 + 2^4) = 192 predicted reads.
    g1 = Graph(4, frozenset(_FOUR_VERTEX[name]))
    for cfg in _CONFIGS:
        _assert_engine_matches_scan(g1, 4, cfg)


def test_scan_of_many_jobs_without_fog_vertices():
    # One profile of 9,000 empty strategies, predicted at 9,001 reads; its keys
    # come from a constant number of ORs per job, not one sort per job.
    (profile, cost), = enumerate_nash_level2(Graph(0, frozenset()), 9000, GameConfig())
    assert profile.strategies == (frozenset(),) * 9000
    assert cost == 0
