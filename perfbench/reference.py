"""A fixed pure-Python job that measures how fast the machine runs right now.

Shared machines of this class (two vCPUs on a shared host) slow down by
30-50% for stretches of seconds to minutes, invisibly from inside the VM.
The benchmark times this job next to every scenario process and scales
the process's times by nominal / measured, so that its time metrics read
in seconds at the reference speed.  Slow stretches hit this job and the
scenarios alike: over sets of five to ten seeded runs, unscaled wall times
spread (interquartile range over median) by up to 30%, scaled ones by
3-7%.

The job mirrors the program's hot path (frozenset edge sets, adjacency
lists, BFS over a deque, small dataclass instances) but imports nothing
from the program, so no change to foggame can move it.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

# Duration of one chunk at the reference speed: about the fastest it ran on
# a 2-vCPU Intel Xeon VM under CPython 3.11.7.  Only the unit of the scaled
# times depends on it.
NOMINAL_S = 0.075
_ROUNDS = 10500


@dataclass(frozen=True)
class _Graph:
    n: int
    edges: frozenset

    def adjacency(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in sorted(self.edges):
            adj[u].append(v)
            adj[v].append(u)
        return adj


def _job() -> int:
    total = 0
    base = [(i, (i * 5 + 3) % 14) for i in range(14)]
    base = [(min(u, v), max(u, v)) for u, v in base if u != v]
    for r in range(_ROUNDS):
        edges = set(base)
        edges.add((r % 7, 7 + r % 7))
        g = _Graph(14, frozenset(edges))
        adj = g.adjacency()
        dist = [-1] * g.n
        dist[0] = 0
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        total += sum(dist)
    return total


def chunk() -> float:
    """Seconds one run of the fixed job takes now."""
    started = time.perf_counter()
    _job()
    return time.perf_counter() - started
