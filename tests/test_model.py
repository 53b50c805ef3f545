"""Profiles, cost functions, and social cost for both player levels."""

import math
import random

import pytest

from foggame import model
from foggame.bounds import check_bounds_on_instance
from foggame.costs import cost_report, interconnection_count, interconnection_union
from foggame.domination import min_dominating_set
from foggame.generators import generate
from foggame.errors import GuardExceeded
from foggame.graph import INF, all_pairs_distances, new_graph, single_source_distances
from foggame.model import (
    GameConfig,
    GameState,
    JobCostType,
    Level1Profile,
    Level2Profile,
    TransitPolicy,
    build_combined_graph,
    build_level1_graph,
    edge_fog_player_cost,
    job_player_cost,
    social_cost_level1,
    social_cost_level2,
)


def _empty_jobs(n1, n2):
    return Level2Profile(n1, tuple(frozenset() for _ in range(n2)))


def _fixed(g1, strategies):
    return GameState(g1, Level2Profile(g1.n, tuple(map(frozenset, strategies))), allow_unequal=True)


# --------------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ValueError, match="alpha"):
        GameConfig(alpha=-1.0)
    with pytest.raises(ValueError, match="beta"):
        GameConfig(beta=-0.5)
    with pytest.raises(ValueError, match="rcs_constant"):
        GameConfig(rcs_constant=0.0)


@pytest.mark.parametrize("name", ["alpha", "beta", "rcs_constant"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_config_rejects_non_finite_parameters(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        GameConfig(**{name: value})


def test_config_defaults():
    cfg = GameConfig()
    assert cfg.job_cost_type is JobCostType.TYPE_II
    assert cfg.transit_policy is TransitPolicy.FULL_COMBINED


# ------------------------------------------------------------------- profiles


def test_level1_profile_rejects_self_purchase():
    with pytest.raises(ValueError, match="itself"):
        Level1Profile((frozenset({0}), frozenset()))


def test_level1_profile_rejects_out_of_range():
    with pytest.raises(ValueError, match="outside"):
        Level1Profile((frozenset({5}), frozenset()))


def test_level2_profile_rejects_out_of_range():
    with pytest.raises(ValueError, match="outside"):
        Level2Profile(2, (frozenset({2}),))


def test_profile_replace():
    p = Level1Profile((frozenset({1}), frozenset()))
    q = p.replace(1, frozenset({0}))
    assert q.strategies == (frozenset({1}), frozenset({0}))
    assert p.strategies[1] == frozenset()


def _rebuilt(profile, player, strategy):
    """replace as the full constructor gives it, every strategy checked again."""
    parts = list(profile.strategies)
    parts[player] = strategy
    if isinstance(profile, Level1Profile):
        return Level1Profile(parts)
    return Level2Profile(profile.n1, parts)


def _replaced(fn, *args):
    """(type, profile, member set types), or the exception type and message raised."""
    try:
        profile = fn(*args)
    except (ValueError, IndexError) as exc:
        return type(exc), str(exc)
    return type(profile), profile, [type(s) for s in profile.strategies]


def test_profile_replace_matches_the_full_constructor():
    # replace checks only the new strategy; on random valid profiles it
    # gives what rebuilding the whole profile gives, and the same error on
    # a bad new member, a self-link or a bad index.
    rng = random.Random(41)
    seen = set()
    for _ in range(600):
        n1 = rng.randint(1, 5)
        level1 = Level1Profile(
            [{v for v in range(n1) if v != i and rng.random() < 0.4} for i in range(n1)]
        )
        level2 = Level2Profile(
            n1, [{v for v in range(n1) if rng.random() < 0.4} for _ in range(rng.randint(1, 4))]
        )
        for profile in (level1, level2):
            n = len(profile.strategies)
            player = rng.randint(-n - 1, n)
            strategy = [v for v in range(-1, n1 + 1) if rng.random() < 0.3]
            expected = _replaced(_rebuilt, profile, player, strategy)
            assert _replaced(profile.replace, player, strategy) == expected, (profile, player)
            if expected[0] is ValueError:
                seen.add("self-link" if "itself" in expected[1] else "member")
            else:
                seen.add(expected[0])
    assert seen == {Level1Profile, Level2Profile, IndexError, "self-link", "member"}


def test_game_state_consistency_checks():
    g = generate("path", 3)
    with pytest.raises(ValueError, match="fog"):
        GameState(g, Level2Profile(2, (frozenset(),) * 2))
    with pytest.raises(ValueError):
        GameState(g, _empty_jobs(3, 2))  # n2 != n1 without allow_unequal
    st = GameState(g, _empty_jobs(3, 2), allow_unequal=True)
    assert st.n1 == 3 and st.n2 == 2
    assert not st.profile_mode


def test_fixed_mode_rejects_level1_updates():
    st = _fixed(generate("path", 3), [{0}, {1}, {2}])
    with pytest.raises(ValueError, match="fixed-graph"):
        st.with_level1_strategy(0, frozenset({1}))


# --------------------------------------------------------------- graph builds


def test_level1_graph_union_is_symmetric():
    a = Level1Profile((frozenset({1}), frozenset()))
    b = Level1Profile((frozenset(), frozenset({0})))
    assert build_level1_graph(a) == build_level1_graph(b)
    assert build_level1_graph(a).edges == frozenset({(0, 1)})


def test_level1_graph_duplicate_purchase_single_edge():
    both = Level1Profile((frozenset({1}), frozenset({0})))
    assert build_level1_graph(both).edge_count == 1


def test_combined_graph_layout():
    g1 = generate("complete", 2)
    profile = Level2Profile(2, (frozenset({0}), frozenset({0, 1})))
    combined = build_combined_graph(g1, profile)
    # jobs occupy vertices n1..n1+n2-1 and never link to each other
    assert combined.n == 4
    assert combined.has_edge(2, 0) and not combined.has_edge(2, 1)
    assert combined.has_edge(3, 0) and combined.has_edge(3, 1)
    assert not combined.has_edge(2, 3)


def test_combined_graph_rejects_mismatch():
    with pytest.raises(ValueError, match="fog"):
        build_combined_graph(generate("path", 3), Level2Profile(2, (frozenset(),)))


# ------------------------------------------------------------------ fog costs


def test_fog_cost_star_center_and_leaf():
    l1 = Level1Profile((frozenset({1, 2, 3}),) + (frozenset(),) * 3)
    st = GameState(l1, _empty_jobs(4, 4))
    cfg = GameConfig(alpha=2.0)
    assert edge_fog_player_cost(0, st, cfg) == 9.0  # 3 links + distance sum 3
    assert edge_fog_player_cost(1, st, cfg) == 5.0  # no links, distances 1+0+2+2
    assert social_cost_level1(st, cfg) == 24.0


def test_fog_cost_disconnected_is_inf():
    l1 = Level1Profile((frozenset(),) * 3)
    st = GameState(l1, _empty_jobs(3, 3))
    assert edge_fog_player_cost(0, st, GameConfig()) == INF
    assert social_cost_level1(st, GameConfig()) == INF


def test_fog_cost_charges_both_sides_of_duplicate_purchase():
    both = Level1Profile((frozenset({1}), frozenset({0})))
    one = Level1Profile((frozenset({1}), frozenset()))
    st_both = GameState(both, _empty_jobs(2, 2))
    st_one = GameState(one, _empty_jobs(2, 2))
    cfg = GameConfig(alpha=3.0)
    assert social_cost_level1(st_both, cfg) == 2 * 3.0 + 2
    assert social_cost_level1(st_one, cfg) == 3.0 + 2


def test_fog_cost_rejects_bad_player():
    st = GameState(Level1Profile((frozenset({1}), frozenset())), _empty_jobs(2, 2))
    with pytest.raises(ValueError, match="outside"):
        edge_fog_player_cost(5, st, GameConfig())


# ------------------------------------------------------------------ job costs


def test_job_cost_type2_example():
    st = _fixed(generate("complete", 2), [{0}])
    # one link plus distances 1 and 2
    assert job_player_cost(0, st, GameConfig(beta=1.5)) == 4.5


def test_job_cost_type1_example():
    st = _fixed(generate("complete", 2), [{0, 1}])
    cfg = GameConfig(beta=1.0, job_cost_type=JobCostType.TYPE_I)
    assert job_player_cost(0, st, cfg) == 2.0 - 1.0 / 2.0


def test_job_cost_empty_strategy():
    st = _fixed(generate("complete", 2), [set()])
    assert job_player_cost(0, st, GameConfig()) == INF
    cfg1 = GameConfig(job_cost_type=JobCostType.TYPE_I)
    assert job_player_cost(0, st, cfg1) == INF


def test_job_cost_rejects_bad_player():
    st = _fixed(generate("complete", 2), [{0}])
    with pytest.raises(ValueError, match="outside"):
        job_player_cost(3, st, GameConfig())


def test_fog_only_ignores_other_jobs_as_transit():
    g1 = generate("path", 5)
    strategies = [{0, 4}, {0}]
    cfg_full = GameConfig(beta=1.0)
    cfg_fog = GameConfig(beta=1.0, transit_policy=TransitPolicy.FOG_ONLY)
    st = _fixed(g1, strategies)
    # job 1 reaches vertex 4 through job 0 only under full combined routing
    assert job_player_cost(1, st, cfg_full) < job_player_cost(1, st, cfg_fog)
    m = all_pairs_distances(g1)
    expected_fog = 1.0 + sum(1 + m[0][w] for w in range(5))
    assert job_player_cost(1, st, cfg_fog) == expected_fog


def test_transit_policies_agree_for_a_lone_job():
    rng = random.Random(31)
    for _ in range(30):
        g1 = generate("erdos_renyi", rng.randint(2, 6), p=0.5, seed=rng.randint(0, 10**6))
        links = {v for v in range(g1.n) if rng.random() < 0.6}
        st = _fixed(g1, [links])
        full = job_player_cost(0, st, GameConfig(beta=2.0))
        fog = job_player_cost(0, st, GameConfig(beta=2.0, transit_policy=TransitPolicy.FOG_ONLY))
        assert full == fog


def test_full_combined_never_beats_fog_only():
    rng = random.Random(97)
    for _ in range(40):
        g1 = generate("erdos_renyi", rng.randint(2, 5), p=0.4, seed=rng.randint(0, 10**6))
        strategies = [
            {v for v in range(g1.n) if rng.random() < 0.4} for _ in range(rng.randint(1, 3))
        ]
        st = _fixed(g1, strategies)
        for j in range(len(strategies)):
            full = job_player_cost(j, st, GameConfig())
            fog = job_player_cost(j, st, GameConfig(transit_policy=TransitPolicy.FOG_ONLY))
            assert full <= fog


def test_type2_cost_cannot_rise_when_another_job_adds_links():
    rng = random.Random(13)
    for _ in range(30):
        g1 = generate("erdos_renyi", rng.randint(2, 5), p=0.4, seed=rng.randint(0, 10**6))
        mine = {v for v in range(g1.n) if rng.random() < 0.5}
        theirs = {v for v in range(g1.n) if rng.random() < 0.3}
        extra = theirs | {rng.randrange(g1.n)}
        before = job_player_cost(0, _fixed(g1, [mine, theirs]), GameConfig())
        after = job_player_cost(0, _fixed(g1, [mine, extra]), GameConfig())
        assert after <= before


def test_dominating_profile_cost_formula_under_fog_only():
    # with links to a dominating set every fog vertex is at most 2 hops away
    cfg = GameConfig(beta=1.5, transit_policy=TransitPolicy.FOG_ONLY)
    for i in range(20):
        g1 = generate("erdos_renyi", 3 + i % 6, p=0.55, seed=8800 + i, require_connected=True)
        dom = min_dominating_set(g1)
        st = _fixed(g1, [dom])
        n, d = g1.n, len(dom)
        assert job_player_cost(0, st, cfg) == cfg.beta * d + d + 2 * (n - d)


# ---------------------------------------------------------------- social cost


def test_social_cost_level2_complete_bipartite():
    g1 = generate("complete", 3)
    st = _fixed(g1, [{0, 1, 2}] * 3)
    cfg = GameConfig(beta=0.5)
    # each job pays beta*n + n, so the total is (beta+1)*n^2
    assert social_cost_level2(st, cfg) == 13.5


def test_social_cost_level2_two_jobs_one_anchor():
    st = _fixed(generate("complete", 2), [{0}, {0}])
    cfg = GameConfig(beta=2.0)
    assert social_cost_level2(st, cfg) == 2 * (cfg.beta + 3)


def test_interconnection_counts():
    profile = Level2Profile(3, (frozenset({0, 1}), frozenset({1, 2})))
    assert interconnection_count(profile) == 4
    assert interconnection_union(profile) == frozenset({0, 1, 2})
    assert interconnection_count(Level2Profile(3, (frozenset(),))) == 0


def test_cost_report_totals_match_components():
    l1 = Level1Profile((frozenset({1}), frozenset({2}), frozenset()))
    st = GameState(l1, Level2Profile(3, (frozenset({0}), frozenset(), frozenset({1, 2}))))
    cfg = GameConfig(alpha=2.0, beta=1.5)
    report = cost_report(st, cfg)
    assert report.social_level1 == sum(report.level1_costs)
    assert report.social_level2 == INF  # the empty-strategy job is unreachable
    assert report.level2_costs[1] == INF
    assert report.interconnection_count == 3
    assert report.social_level1 == social_cost_level1(st, cfg)


def _reference_fog_cost(i, state, cfg):
    """A BFS from fog player i in the fog graph, plus alpha per link bought in profile mode."""
    total = sum(single_source_distances(state.g1, i))
    if state.profile_mode:
        total += cfg.alpha * len(state.level1.strategies[i])
    return total


def _reference_job_cost(j, state, cfg):
    """A BFS from job vertex n1 + j in a combined graph built for the job.

    FOG_ONLY reads as "drop the other jobs' links": the job then reaches
    the fog vertices over its own links and fog-internal paths only.
    """
    n1, jobs = state.n1, state.level2
    if cfg.transit_policy is TransitPolicy.FOG_ONLY:
        jobs = Level2Profile(n1, (s if k == j else () for k, s in enumerate(jobs.strategies)))
    d = sum(single_source_distances(build_combined_graph(state.g1, jobs), n1 + j)[:n1])
    purchase = cfg.beta * len(state.level2.strategies[j])
    if cfg.job_cost_type is JobCostType.TYPE_II:
        return purchase + d
    return INF if d == INF else purchase if d == 0 else purchase - 1.0 / d


@pytest.mark.parametrize("transit", tuple(TransitPolicy))
@pytest.mark.parametrize("profile_mode", [False, True], ids=["fixed", "profile"])
def test_cost_report_matches_the_per_player_references(transit, profile_mode):
    # The per-player costs and the report read one list-BFS pricing that
    # runs every BFS on one adjacency list, the fog graph's extended by
    # the job vertices (with back-links under FULL_COMBINED); the
    # references run one BFS per player in the fog graph or in a combined
    # graph built for that job.  Compared by repr, so an int sum
    # (fixed-graph fog costs) and a float one differ; disconnected draws
    # give INF costs, and the first draw, n1 = 0, the zero distance term.
    rng = random.Random(6100 + profile_mode)
    sizes = [(0, 3)] + [(rng.randint(0, 7), rng.randint(0, 6)) for _ in range(40)]
    for n1, n2 in sizes:
        cfg = GameConfig(
            alpha=rng.choice((0.5, 2.0)),
            beta=rng.choice((0.5, 1.5, 3.5)),
            job_cost_type=rng.choice(tuple(JobCostType)),
            transit_policy=transit,
        )
        jobs = Level2Profile(
            n1, (frozenset(rng.sample(range(n1), rng.randint(0, n1))) for _ in range(n2))
        )
        if profile_mode:
            level1 = Level1Profile(
                frozenset(v for v in range(n1) if v != i and rng.random() < 0.3) for i in range(n1)
            )
        else:
            level1 = new_graph(0, [])
            if n1:
                level1 = generate("erdos_renyi", n1, p=0.4, seed=rng.randrange(10**6))
        state = GameState(level1, jobs, allow_unequal=True)
        fog = repr(tuple(_reference_fog_cost(i, state, cfg) for i in range(n1)))
        job = repr(tuple(_reference_job_cost(j, state, cfg) for j in range(n2)))
        report = cost_report(state, cfg)
        assert repr(report.level1_costs) == fog
        assert repr(tuple(edge_fog_player_cost(i, state, cfg) for i in range(n1))) == fog
        assert repr(report.level2_costs) == job
        assert repr(tuple(job_player_cost(j, state, cfg) for j in range(n2))) == job
        assert repr(report.social_level2) == repr(social_cost_level2(state, cfg))


def _per_player_social_costs(state, cfg):
    """Both social costs as sums of per-player costs, each player priced on its own."""
    fog = sum(edge_fog_player_cost(i, state, cfg) for i in range(state.n1))
    return fog, sum(job_player_cost(j, state, cfg) for j in range(state.n2))


@pytest.mark.parametrize("transit", tuple(TransitPolicy))
@pytest.mark.parametrize("cost_type", tuple(JobCostType))
@pytest.mark.parametrize("profile_mode", [False, True], ids=["fixed", "profile"])
def test_social_costs_price_a_state_once_as_the_per_player_sums(transit, cost_type, profile_mode):
    # social_cost_level1 and social_cost_level2 price every player in one
    # pass; they must equal the per-player sums by repr, so an int sum
    # (fixed-graph fog costs) and a float one differ.  Sparse random fog
    # graphs and job links leave some players unreachable, at INF.
    rng = random.Random(6200 + 4 * profile_mode + 2 * (cost_type is JobCostType.TYPE_II))
    infinite = 0
    for _ in range(30):
        n1, n2 = rng.randint(0, 6), rng.randint(0, 5)
        cfg = GameConfig(
            alpha=rng.choice((0.5, 2.0)),
            beta=rng.choice((0.5, 1.5, 3.5)),
            job_cost_type=cost_type,
            transit_policy=transit,
        )
        jobs = Level2Profile(
            n1, (frozenset(rng.sample(range(n1), rng.randint(0, n1))) for _ in range(n2))
        )
        if profile_mode:
            level1 = Level1Profile(
                frozenset(v for v in range(n1) if v != i and rng.random() < 0.3) for i in range(n1)
            )
        else:
            pairs = [(u, v) for u in range(n1) for v in range(u + 1, n1) if rng.random() < 0.3]
            level1 = new_graph(n1, pairs)
        state = GameState(level1, jobs, allow_unequal=True)
        social = (social_cost_level1(state, cfg), social_cost_level2(state, cfg))
        assert repr(social) == repr(_per_player_social_costs(state, cfg))
        infinite += INF in social
    assert infinite, "no draw left a player unreachable"


def test_cost_report_and_the_bounds_check_run_the_cost_guard(monkeypatch):
    # The library calls are guarded where they price, not only in the
    # scenario layer.  Path 3 with jobs {0}, {1}, {2}: 6 BFS over 6
    # vertices, 2 fog edges and 3 links are 6 * 11 = 66 pairs.
    state = _fixed(generate("path", 3), [{0}, {1}, {2}])
    monkeypatch.setattr(model, "COST_PAIR_GUARD", 65)
    refusal = "^cost evaluation guard exceeded: size 66 > limit 65$"
    for run in (cost_report, check_bounds_on_instance):
        with pytest.raises(GuardExceeded, match=refusal):
            run(state, GameConfig())
    # The bounds check runs the cost guard first, so the guard refuses
    # unequal counts (4 * 7 = 28 pairs here) before they are compared.
    unequal = _fixed(generate("path", 3), [{0}])
    monkeypatch.setattr(model, "COST_PAIR_GUARD", 27)
    with pytest.raises(GuardExceeded, match="size 28 > limit 27"):
        check_bounds_on_instance(unequal, GameConfig())
    monkeypatch.setattr(model, "COST_PAIR_GUARD", 66)
    assert cost_report(state, GameConfig()).interconnection_count == 3
    with pytest.raises(ValueError, match="bound formulas assume n1 == n2"):
        check_bounds_on_instance(unequal, GameConfig())


# Path 4 with jobs {0}, {1, 3}, {2}: 7 vertices, 3 fog edges and 4 links.
# The profile buys 0-1, 1-2 and 2-3 (3 fog edges) for jobs {0}, {2, 3}:
# 6 vertices and 3 links.
_PRICED_FIXED = _fixed(generate("path", 4), [{0}, {1, 3}, {2}])
_PRICED_PROFILE = GameState(
    Level1Profile([{1}, {2}, {3}, set()]), Level2Profile(4, [{0}, {2, 3}]), allow_unequal=True
)


@pytest.mark.parametrize(
    "price, state, bfs",
    [
        (lambda st, cfg: job_player_cost(1, st, cfg), _PRICED_FIXED, 1),
        (lambda st, cfg: edge_fog_player_cost(2, st, cfg), _PRICED_FIXED, 1),
        (lambda st, cfg: edge_fog_player_cost(0, st, cfg), _PRICED_PROFILE, 1),
        (social_cost_level1, _PRICED_PROFILE, 4),
        (social_cost_level2, _PRICED_FIXED, 3),
        (cost_report, _PRICED_FIXED, 7),
    ],
    ids=["job", "fog", "fog-profile", "social1", "social2", "report"],
)
def test_every_pricing_entry_point_checks_the_work_it_runs(monkeypatch, price, state, bfs):
    # One BFS per player priced, each over every vertex, fog edge and link.
    n = state.n1 + state.n2
    work = bfs * (n + state.g1.edge_count + interconnection_count(state.level2))
    monkeypatch.setattr(model, "COST_PAIR_GUARD", work - 1)
    refusal = f"^cost evaluation guard exceeded: size {work} > limit {work - 1}$"
    with pytest.raises(GuardExceeded, match=refusal):
        price(state, GameConfig())
    monkeypatch.setattr(model, "COST_PAIR_GUARD", work)
    price(state, GameConfig())


def test_pricing_refuses_a_large_state_on_its_counts():
    # 6,000 BFS over 12,000 vertices, 5,999 fog edges and 6,000 links;
    # one job's BFS is within the guard.
    state = _fixed(generate("path", 6000), [{j} for j in range(6000)])
    with pytest.raises(GuardExceeded, match="size 143994000 > limit 16777216"):
        social_cost_level2(state, GameConfig())
    assert job_player_cost(0, state, GameConfig()) == 1 + sum(1 + v for v in range(6000))
