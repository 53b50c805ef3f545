"""Undirected simple graphs at desk scale.

Provides validated construction, BFS hop distances with a first-class
infinite value, exact minimum dominating sets with deterministic
tie-breaking, and seeded instance generators.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from .errors import GenerationError, GuardExceeded

INF = math.inf

Distance = float | int
VertexSet = frozenset[int]

# Enumeration limits, read at call time: setting one on this module (for
# instance with setattr) moves it for every later call.
DOMSET_ENUMERATION_GUARD = 24  # vertices of an exact minimum dominating set
GENERATION_RETRY_BUDGET = 1000  # draws of a connected erdos_renyi graph
GENERATION_PAIR_GUARD = 2**20  # vertex pairs one generator call visits, all draws

GENERATOR_KINDS = ("path", "cycle", "star", "complete", "erdos_renyi")


class _Validated:
    """Base of the records that check their fields in __new__.

    A named tuple's _make, and so its _replace, builds the tuple directly;
    here they go through the class, so no copy skips the checks.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _GraphFields(NamedTuple):
    n: int
    edges: frozenset[tuple[int, int]]


class Graph(_Validated, _GraphFields):
    """Simple undirected graph on vertices 0..n-1.

    Edges are stored normalized as (u, v) with u < v.  Instances are
    immutable and hashable, which lets distance computations be cached.
    """

    __slots__ = ()

    def __new__(cls, n: int, edges: frozenset[tuple[int, int]]):
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {n}")
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop ({u},{v}) is not allowed")
            if u > v:
                raise ValueError(f"edge ({u},{v}) is not normalized, expected u < v")
            if not 0 <= u < n or not 0 <= v < n:
                raise ValueError(f"edge ({u},{v}) has an endpoint outside [0,{n})")
        return super().__new__(cls, n, edges)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def adjacency(self) -> list[list[int]]:
        """Neighbor lists, each in ascending vertex order."""
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in sorted(self.edges):
            adj[u].append(v)
            adj[v].append(u)
        return adj


def new_graph(n: int, edges: Iterable[Sequence[int]]) -> Graph:
    """Build a Graph from a raw edge list, naming the offending pair on error.

    Rejects self-loops, endpoints outside [0, n), and duplicate edges.  A
    reversed repeat such as (0,1) after (1,0) counts as a duplicate.
    """
    seen: set[tuple[int, int]] = set()
    for pair in edges:
        u, v = pair
        if u == v:
            raise ValueError(f"self-loop ({u},{v}) is not allowed")
        if not 0 <= u < n or not 0 <= v < n:
            raise ValueError(f"edge ({u},{v}) has an endpoint outside [0,{n})")
        key = (v, u) if u > v else (u, v)
        if key in seen:
            raise ValueError(f"duplicate edge ({u},{v})")
        seen.add(key)
    return Graph(n, frozenset(seen))


def single_source_distances(
    g: Graph, source: int, adjacency: list[list[int]] | None = None
) -> list[Distance]:
    """Hop distances from source to every vertex, INF where unreachable.

    A caller that runs several BFS on g passes g.adjacency() once as
    adjacency instead of having each call rebuild it.
    """
    if not 0 <= source < g.n:
        raise ValueError(f"source {source} outside [0,{g.n})")
    adj = g.adjacency() if adjacency is None else adjacency
    dist: list[Distance] = [INF] * g.n
    dist[source] = 0
    queue: deque[int] = deque([source])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if dist[w] == INF:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


@lru_cache(maxsize=256)
def all_pairs_distances(g: Graph) -> tuple[tuple[Distance, ...], ...]:
    """BFS from every source: [u][v] is the hop distance from u to v.

    Symmetric with a zero diagonal.
    """
    adjacency = g.adjacency()
    return tuple(tuple(single_source_distances(g, s, adjacency)) for s in range(g.n))


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        raise ValueError("connectivity is undefined for the empty graph")
    return INF not in single_source_distances(g, 0)


def _check_members(g: Graph, members: Iterable[int]) -> frozenset[int]:
    s = frozenset(members)
    for v in s:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} outside [0,{g.n})")
    return s


def is_dominating_set(g: Graph, members: Iterable[int]) -> bool:
    """True when every vertex is in the set or adjacent to a member."""
    s = _check_members(g, members)
    adj = g.adjacency()
    for v in range(g.n):
        if v in s:
            continue
        if not any(w in s for w in adj[v]):
            return False
    return True


def closed_neighborhood_masks(g: Graph) -> list[int]:
    """Bit u of masks[v] is set iff u == v or u is adjacent to v."""
    masks = [1 << v for v in range(g.n)]
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def min_dominating_set(g: Graph) -> VertexSet:
    """Exact minimum dominating set by subset enumeration.

    Scans subsets in increasing cardinality and, within a cardinality, in
    lexicographic member order, so the first hit is the lexicographically
    smallest minimum set; at the latest the whole vertex set dominates.
    Refuses graphs larger than DOMSET_ENUMERATION_GUARD.
    """
    guard = DOMSET_ENUMERATION_GUARD
    if g.n > guard:
        raise GuardExceeded("dominating-set enumeration", guard, g.n)
    masks = closed_neighborhood_masks(g)
    full = (1 << g.n) - 1
    for k in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), k):
            cover = 0
            for v in combo:
                cover |= masks[v]
            if cover == full:
                return frozenset(combo)
    raise AssertionError("unreachable: the whole vertex set dominates")


def check_generator(kind: str, n: int, p: float | None = None, seed: int | None = None) -> None:
    """Raise the ValueError generate would raise for these arguments.

    Builds nothing, so a caller can refuse an instance by its size before
    paying for its edges.
    """
    if n < 1:
        raise ValueError(f"generator needs n >= 1, got {n}")
    if kind not in GENERATOR_KINDS:
        raise ValueError(f"unknown generator kind {kind!r}, expected one of {GENERATOR_KINDS}")
    if kind == "erdos_renyi":
        if p is None or not 0.0 <= p <= 1.0:
            raise ValueError(f"erdos_renyi needs edge probability p in [0,1], got {p}")
        if seed is None:
            raise ValueError("erdos_renyi needs an explicit seed")


def generate(
    kind: str,
    n: int,
    p: float | None = None,
    seed: int | None = None,
    require_connected: bool = False,
) -> Graph:
    """Build a named instance; deterministic for fixed arguments.

    Kinds: path, cycle, star (center 0), complete, erdos_renyi.  The
    Erdos-Renyi kind needs p and seed; with require_connected it redraws
    up to GENERATION_RETRY_BUDGET times, and no more than
    GENERATION_PAIR_GUARD vertex pairs over all its draws, then raises
    GenerationError.  Refuses a draw that would visit more than
    GENERATION_PAIR_GUARD vertex pairs (n - 1 for path and star, n for
    cycle, C(n, 2) otherwise) before building any edge.
    """
    check_generator(kind, n, p, seed)
    pairs = {"path": n - 1, "star": n - 1, "cycle": n}.get(kind, n * (n - 1) // 2)
    if pairs > GENERATION_PAIR_GUARD:
        raise GuardExceeded("graph generation", GENERATION_PAIR_GUARD, pairs)
    if kind == "path":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif kind == "cycle":
        edges = [(i, i + 1) for i in range(n - 1)]
        if n > 2:
            edges.append((0, n - 1))
    elif kind == "star":
        edges = [(0, i) for i in range(1, n)]
    elif kind == "complete":
        edges = list(itertools.combinations(range(n), 2))
    else:  # erdos_renyi
        rng = random.Random(seed)
        budget = min(GENERATION_RETRY_BUDGET, GENERATION_PAIR_GUARD // max(pairs, 1))
        for _ in range(budget):
            drawn = [(i, j) for i, j in itertools.combinations(range(n), 2) if rng.random() < p]
            g = Graph(n, frozenset(drawn))
            if not require_connected or is_connected(g):
                return g
        raise GenerationError(
            f"no connected graph in {budget} draws (n={n}, p={p}, seed={seed})"
        )
    g = Graph(n, frozenset(edges))
    if require_connected and not is_connected(g):
        raise GenerationError(f"{kind} instance with n={n} is not connected")
    return g
