"""Graph container, BFS distances, generators, and the dominating-set solvers."""

import itertools
import random

import pytest

from foggame import domination, generators
from foggame.domination import is_dominating_set, min_dominating_set
from foggame.errors import GenerationError, GuardExceeded
from foggame.generators import generate
from foggame.graph import (
    INF,
    Graph,
    all_pairs_distances,
    is_connected,
    new_graph,
    single_source_distances,
)


def _brute_minimum_dominating(g: Graph) -> int:
    best = g.n
    for size in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            if is_dominating_set(g, combo):
                return size
    return best


# ---------------------------------------------------------------- construction


def test_new_graph_basic():
    g = new_graph(3, [(0, 1), (2, 1)])
    assert g.n == 3
    assert g.edge_count == 2
    assert g.has_edge(1, 2) and g.has_edge(2, 1)
    assert not g.has_edge(0, 2)


def test_new_graph_rejects_self_loop():
    with pytest.raises(ValueError, match="self-loop"):
        new_graph(3, [(1, 1)])


def test_new_graph_rejects_out_of_range():
    with pytest.raises(ValueError, match="outside"):
        new_graph(2, [(0, 2)])


def test_new_graph_rejects_duplicates_including_reversed():
    with pytest.raises(ValueError, match="duplicate edge"):
        new_graph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="duplicate edge"):
        new_graph(3, [(0, 1), (0, 1)])


def test_graph_rejects_unnormalized_edge():
    with pytest.raises(ValueError, match="not normalized"):
        Graph(3, frozenset({(1, 0)}))


def test_adjacency_lists_are_sorted():
    g = new_graph(4, [(0, 3), (0, 1), (0, 2)])
    assert g.adjacency()[0] == [1, 2, 3]
    assert g.adjacency()[2] == [0]


# ------------------------------------------------------------------- distances


def test_single_source_on_path():
    g = generate("path", 4)
    assert single_source_distances(g, 0) == [0, 1, 2, 3]
    assert single_source_distances(g, 2) == [2, 1, 0, 1]


def test_single_source_unreachable_is_inf():
    g = new_graph(3, [(0, 1)])
    assert single_source_distances(g, 0) == [0, 1, INF]


@pytest.mark.parametrize(
    "g, source, adjacency",
    [
        (new_graph(2, []), 2, None),
        # a given adjacency, not g.n, fixes the vertex count and the source range
        (new_graph(3, [(0, 1)]), 1, [[]]),
    ],
    ids=["graph", "adjacency"],
)
def test_single_source_rejects_bad_source(g, source, adjacency):
    with pytest.raises(ValueError, match="outside"):
        single_source_distances(g, source, adjacency)


def test_single_source_walks_an_extended_adjacency():
    # vertex 2 lies outside g but inside the adjacency, as a cost-mode job does
    g = new_graph(2, [(0, 1)])
    assert single_source_distances(g, 2, g.adjacency() + [[1]]) == [2, 1, 0]


def test_all_pairs_matches_single_source():
    g = generate("erdos_renyi", 7, p=0.4, seed=11)
    m = all_pairs_distances(g)
    for s in range(7):
        assert list(m[s]) == single_source_distances(g, s)


def test_all_pairs_metric_properties():
    # zero diagonal, symmetry, and the triangle inequality on seeded graphs
    for i in range(100):
        g = generate("erdos_renyi", 4 + i % 5, p=0.45, seed=900 + i)
        m = all_pairs_distances(g)
        for u in range(g.n):
            assert m[u][u] == 0
            for v in range(g.n):
                assert m[u][v] == m[v][u]
                for w in range(g.n):
                    if m[u][w] < INF and m[w][v] < INF:
                        assert m[u][v] <= m[u][w] + m[w][v]


def test_adding_an_edge_never_lengthens_distances():
    rng = random.Random(77)
    for _ in range(30):
        n = rng.randint(3, 7)
        g = generate("erdos_renyi", n, p=0.4, seed=rng.randint(0, 10**6))
        missing = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if not g.has_edge(u, v)
        ]
        if not missing:
            continue
        u, v = rng.choice(missing)
        denser = Graph(n, g.edges | {(u, v)})
        before = all_pairs_distances(g)
        after = all_pairs_distances(denser)
        for a in range(n):
            for b in range(n):
                assert after[a][b] <= before[a][b]


def test_is_connected():
    assert is_connected(generate("path", 5))
    assert not is_connected(new_graph(3, [(0, 1)]))
    assert is_connected(new_graph(1, []))
    with pytest.raises(ValueError, match="empty graph"):
        is_connected(Graph(0, frozenset()))


# ------------------------------------------------------------- dominating sets


def test_is_dominating_set_examples():
    c4 = generate("cycle", 4)
    assert not is_dominating_set(c4, {0})
    assert is_dominating_set(c4, {0, 2})
    star = generate("star", 5)
    assert is_dominating_set(star, {0})
    assert not is_dominating_set(star, {1})
    with pytest.raises(ValueError, match="outside"):
        is_dominating_set(c4, {9})


def test_min_dominating_set_frozen_examples():
    assert min_dominating_set(generate("path", 4)) == frozenset({0, 2})
    assert min_dominating_set(generate("cycle", 6)) == frozenset({0, 3})
    assert min_dominating_set(generate("star", 6)) == frozenset({0})
    assert min_dominating_set(Graph(1, frozenset())) == frozenset({0})
    assert min_dominating_set(Graph(0, frozenset())) == frozenset()


def test_min_dominating_set_prefers_lexicographically_smallest():
    # K3: every singleton dominates, so the solver must return {0}
    assert min_dominating_set(generate("complete", 3)) == frozenset({0})


def test_min_dominating_set_matches_brute_force():
    for i in range(40):
        n = 2 + i % 9
        g = generate("erdos_renyi", n, p=0.35, seed=4400 + i)
        got = min_dominating_set(g)
        assert is_dominating_set(g, got)
        assert len(got) == _brute_minimum_dominating(g)


def test_min_dominating_set_handles_isolated_vertices():
    g = new_graph(4, [(0, 1)])
    got = min_dominating_set(g)
    assert {2, 3} <= got
    assert len(got) == _brute_minimum_dominating(g) == 3


def test_min_dominating_set_guard(monkeypatch):
    # The guard is read at call time: lowering it refuses an accepted
    # graph, raising it admits a refused one.
    path4, star25 = generate("path", 4), generate("star", 25)
    assert min_dominating_set(path4) == frozenset({0, 2})
    with pytest.raises(GuardExceeded) as refused:
        min_dominating_set(star25)
    assert str(refused.value) == "dominating-set enumeration guard exceeded: size 25 > limit 24"
    monkeypatch.setattr(domination, "DOMSET_ENUMERATION_GUARD", 3)
    with pytest.raises(GuardExceeded) as refused:
        min_dominating_set(path4)
    assert str(refused.value) == "dominating-set enumeration guard exceeded: size 4 > limit 3"
    monkeypatch.setattr(domination, "DOMSET_ENUMERATION_GUARD", 26)
    assert min_dominating_set(star25) == frozenset({0})
    assert len(min_dominating_set(generate("star", 26))) == 1


# ------------------------------------------------------------------ generators


@pytest.mark.parametrize(
    "kind,n,expected",
    [
        ("path", 4, {(0, 1), (1, 2), (2, 3)}),
        ("cycle", 4, {(0, 1), (1, 2), (2, 3), (0, 3)}),
        ("cycle", 2, {(0, 1)}),
        ("star", 4, {(0, 1), (0, 2), (0, 3)}),
        ("complete", 3, {(0, 1), (0, 2), (1, 2)}),
        ("path", 1, set()),
    ],
)
def test_generator_shapes(kind, n, expected):
    assert generate(kind, n).edges == frozenset(expected)


@pytest.mark.parametrize("kind", ["path", "cycle", "star", "complete"])
def test_named_generators_are_connected_at_every_size(kind):
    # generate keeps no connectivity check for these kinds: it cannot fail.
    for n in range(1, 13):
        assert is_connected(generate(kind, n, require_connected=True))


def test_erdos_renyi_is_deterministic_per_seed():
    a = generate("erdos_renyi", 8, p=0.3, seed=5)
    b = generate("erdos_renyi", 8, p=0.3, seed=5)
    c = generate("erdos_renyi", 8, p=0.3, seed=6)
    assert a == b
    assert a != c  # different seed should perturb at least one edge here


def test_erdos_renyi_requires_p_and_seed():
    with pytest.raises(ValueError, match="edge probability"):
        generate("erdos_renyi", 4, seed=1)
    with pytest.raises(ValueError, match="explicit seed"):
        generate("erdos_renyi", 4, p=0.5)


def test_generate_connected_retry_exhaustion(monkeypatch):
    # The budget is read at call time.  Seed 0 first draws a connected
    # 4-vertex graph at draw 52, and seed 77 a connected 2-vertex graph at
    # draw 1,002.
    sparse = dict(p=0.1, seed=0, require_connected=True)
    rare = dict(p=0.001, seed=77, require_connected=True)
    accepted = generate("erdos_renyi", 4, **sparse)
    with pytest.raises(GenerationError) as refused:
        generate("erdos_renyi", 2, **rare)
    assert str(refused.value) == "no connected graph in 1000 draws (n=2, p=0.001, seed=77)"
    monkeypatch.setattr(generators, "GENERATION_RETRY_BUDGET", 51)
    with pytest.raises(GenerationError) as refused:
        generate("erdos_renyi", 4, **sparse)
    assert str(refused.value) == "no connected graph in 51 draws (n=4, p=0.1, seed=0)"
    monkeypatch.setattr(generators, "GENERATION_RETRY_BUDGET", 10)
    with pytest.raises(GenerationError, match="no connected graph in 10 draws"):
        generate("erdos_renyi", 5, p=0.0, seed=1, require_connected=True)
    monkeypatch.setattr(generators, "GENERATION_RETRY_BUDGET", 52)
    assert generate("erdos_renyi", 4, **sparse) == accepted
    monkeypatch.setattr(generators, "GENERATION_RETRY_BUDGET", 1002)
    assert generate("erdos_renyi", 2, **rare).edges == frozenset({(0, 1)})


def test_generate_pair_guard(monkeypatch):
    # The guard is read at call time and refuses before any edge exists:
    # lowering it refuses an accepted shape, raising it admits a refused one.
    for kind, n, pairs in (("path", 10**12, 10**12 - 1), ("complete", 1449, 1_049_076)):
        with pytest.raises(GuardExceeded) as refused:
            generate(kind, n)
        assert str(refused.value) == f"graph generation guard exceeded: size {pairs} > limit 1048576"
    shapes = (("path", 7), ("star", 7), ("cycle", 6), ("complete", 4))
    monkeypatch.setattr(generators, "GENERATION_PAIR_GUARD", 5)
    assert generate("cycle", 5).edge_count == 5
    for kind, n in shapes:
        with pytest.raises(GuardExceeded, match="size 6 > limit 5"):
            generate(kind, n)
    with pytest.raises(GuardExceeded, match="size 6 > limit 5"):
        generate("erdos_renyi", 4, p=0.5, seed=1)
    monkeypatch.setattr(generators, "GENERATION_PAIR_GUARD", 6)
    assert [generate(kind, n).edge_count for kind, n in shapes] == [6, 6, 6, 6]
    assert generate("erdos_renyi", 4, p=1.0, seed=1).edge_count == 6


def test_generate_pair_guard_covers_every_redraw(monkeypatch):
    # The default guard leaves all 1000 draws up to 46 vertices (1,035
    # pairs a draw) and 970 at 47 (1,081 pairs).  The guard is read at
    # call time: at 30 pairs a 5-vertex graph gets three draws of 10.
    disconnected = dict(p=0.0, seed=1, require_connected=True)
    for n, draws in ((46, 1000), (47, 970)):
        with pytest.raises(GenerationError, match=f"no connected graph in {draws} draws"):
            generate("erdos_renyi", n, **disconnected)
    monkeypatch.setattr(generators, "GENERATION_PAIR_GUARD", 30)
    with pytest.raises(GenerationError) as refused:
        generate("erdos_renyi", 5, **disconnected)
    assert str(refused.value) == "no connected graph in 3 draws (n=5, p=0.0, seed=1)"


def test_generate_rejects_unknown_kind_and_bad_n():
    with pytest.raises(ValueError, match="unknown generator kind"):
        generate("wheel", 4)
    with pytest.raises(ValueError, match="n >= 1"):
        generate("path", 0)


def test_generate_require_connected_passes_connected_samples():
    for i in range(10):
        g = generate("erdos_renyi", 6, p=0.6, seed=7000 + i, require_connected=True)
        assert is_connected(g)
