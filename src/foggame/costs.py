"""The cost mode: every player's cost and the social totals of one state.

scenario loads this module for a `cost` run only, and bounds and verify
for their interconnection counts; poa, nash and dynamics runs never
compile it.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import GuardExceeded
from .graph import VertexSet, single_source_distances
from .model import GameConfig, GameState, Level2Profile, TransitPolicy, _job_costs

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


def cost_report(state: GameState, cfg: GameConfig) -> CostReport:
    """Evaluate every player once; the social totals are exact sums.

    The costs equal edge_fog_player_cost and job_player_cost exactly, and
    every BFS walks one adjacency list.  It starts as the fog graph's,
    which serves the fog BFS; then each job vertex n1 + j gets an out-list
    of its members, and under FULL_COMBINED each member a link back to
    it.  Without the back-links a BFS from a job never enters another job,
    which is what FOG_ONLY means; with them the list is the combined
    graph's.  No graph is built beyond the fog graph.
    """
    g1, n1, jobs = state.g1, state.n1, state.level2
    adjacency = g1.adjacency()
    level1 = [sum(single_source_distances(g1, i, adjacency)) for i in range(n1)]
    if state.profile_mode:
        level1 = [d + cfg.alpha * len(s) for d, s in zip(level1, state.level1.strategies)]
    adjacency += map(list, jobs.strategies)
    if cfg.transit_policy is TransitPolicy.FULL_COMBINED:
        for jv, s in enumerate(jobs.strategies, n1):
            for v in s:
                adjacency[v].append(jv)
    sums = [
        sum(single_source_distances(g1, jv, adjacency)[:n1]) for jv in range(n1, n1 + jobs.n2)
    ]
    level2 = [_job_costs(cfg.beta * len(s), [d], cfg)[0] for s, d in zip(jobs.strategies, sums)]
    return CostReport(
        level1_costs=tuple(level1),
        level2_costs=tuple(level2),
        social_level1=sum(level1),
        social_level2=sum(level2),
        interconnection_count=interconnection_count(jobs),
    )
