"""The cost mode: every player's cost and the social totals of one state.

scenario loads this module for a `cost` run only, and bounds and verify
for their interconnection counts; poa, nash and dynamics runs never
compile it.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import GuardExceeded
from .graph import Distance, Graph, VertexSet, single_source_distances
from .model import (
    GameConfig,
    GameState,
    Level2Profile,
    TransitPolicy,
    _job_costs,
    build_combined_graph,
)

COST_PAIR_GUARD = 2**24  # (BFS source, vertex or edge) pairs of a cost run


class CostReport(NamedTuple):
    """Per-player costs plus the social totals of one state."""

    level1_costs: tuple[float, ...]
    level2_costs: tuple[float, ...]
    social_level1: float
    social_level2: float
    interconnection_count: int


def interconnection_count(profile: Level2Profile) -> int:
    """Total number of job-to-fog links, counting one per purchase."""
    return sum(len(s) for s in profile.strategies)


def interconnection_union(profile: Level2Profile) -> VertexSet:
    """Diagnostic alternative reading: fog vertices touched by any job."""
    return frozenset().union(*profile.strategies) if profile.strategies else frozenset()


def _within_cost_guard(state: GameState) -> GameState:
    """state, unless one BFS per player over its combined graph passes COST_PAIR_GUARD."""
    n = state.n1 + state.n2
    pairs = n * (n + state.g1.edge_count + sum(map(len, state.level2.strategies)))
    if pairs > COST_PAIR_GUARD:
        raise GuardExceeded("cost evaluation", COST_PAIR_GUARD, pairs)
    return state


def _bfs_sums(
    g: Graph, adjacency: list[list[int]], sources: Iterable[int], n1: int
) -> list[Distance]:
    """Each source's distance sum to vertices 0..n1-1 of g, on one adjacency."""
    return [sum(single_source_distances(g, s, adjacency)[:n1]) for s in sources]


def cost_report(state: GameState, cfg: GameConfig) -> CostReport:
    """Evaluate every player once; the social totals are exact sums.

    The costs equal edge_fog_player_cost and job_player_cost exactly, from
    shared builds: one adjacency of the fog graph serves every fog BFS,
    and under FULL_COMBINED one combined graph serves every job BFS.
    Under FOG_ONLY a job's graph is the fog graph plus its own vertex n1,
    and a BFS from n1 never comes back to it, so the fog adjacency with
    n1's links to the job's members appended serves every job in turn;
    no combined graph is built.
    """
    g1, n1, jobs = state.g1, state.n1, state.level2
    adjacency = g1.adjacency()
    level1 = _bfs_sums(g1, adjacency, range(n1), n1)
    if state.profile_mode:
        level1 = [d + cfg.alpha * len(s) for d, s in zip(level1, state.level1.strategies)]
    if cfg.transit_policy is TransitPolicy.FULL_COMBINED:
        combined = build_combined_graph(g1, jobs)
        sums = _bfs_sums(combined, combined.adjacency(), range(n1, n1 + jobs.n2), n1)
    else:
        with_job = Graph(n1 + 1, frozenset())  # its vertex count sizes the BFS
        adjacency.append([])
        sums = []
        for s in jobs.strategies:
            adjacency[n1] = list(s)
            sums += _bfs_sums(with_job, adjacency, [n1], n1)
    level2 = [_job_costs(cfg.beta * len(s), [d], cfg)[0] for s, d in zip(jobs.strategies, sums)]
    return CostReport(
        level1_costs=tuple(level1),
        level2_costs=tuple(level2),
        social_level1=sum(level1),
        social_level2=sum(level2),
        interconnection_count=interconnection_count(jobs),
    )
