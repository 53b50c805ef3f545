"""Undirected simple graphs at desk scale.

Provides validated construction and BFS hop distances with a first-class
infinite value.  The seeded generators live in foggame.generators and the
exact minimum dominating sets in foggame.domination.
"""

from __future__ import annotations

import math
from collections import deque
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

INF = math.inf

Distance = float | int
VertexSet = frozenset[int]

# The kinds foggame.generators builds; the CLI's --kind flag reads them here.
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
    adjacency instead of having each call rebuild it.  The BFS walks that
    list alone, whose length is the vertex count: it may extend g's.
    """
    adj = g.adjacency() if adjacency is None else adjacency
    n = len(adj)
    if not 0 <= source < n:
        raise ValueError(f"source {source} outside [0,{n})")
    dist: list[Distance] = [INF] * n
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


def closed_neighborhood_masks(g: Graph) -> list[int]:
    """Bit u of masks[v] is set iff u == v or u is adjacent to v."""
    masks = [1 << v for v in range(g.n)]
    for u, v in g.edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks
