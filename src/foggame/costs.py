"""The cost mode: every player's cost and the social totals of one state.

A scenario loads this module in the `cost` and `bounds` modes only, and
verify for its interconnection counts; poa, nash and dynamics runs never
compile it, and read the report's guard, model.COST_PAIR_GUARD, without it.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import VertexSet
from .model import GameConfig, GameState, Level2Profile, _player_costs, _within_cost_guard


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


def _priced_links(state: GameState) -> int:
    """The state's job link count, once model.COST_PAIR_GUARD admits pricing the state."""
    links = interconnection_count(state.level2)
    _within_cost_guard(state.n1 + state.n2, state.g1.edge_count + links)
    return links


def cost_report(state: GameState, cfg: GameConfig) -> CostReport:
    """Evaluate every player once; the social totals are exact sums.

    Refused past model.COST_PAIR_GUARD.  The costs are edge_fog_player_cost's
    and job_player_cost's, from the same list-BFS pricing of the state
    (model._player_costs), every BFS on one adjacency list.
    """
    n1, n2 = state.n1, state.n2
    links = _priced_links(state)
    costs = _player_costs(state, cfg, range(n1), range(n2))
    level1, level2 = costs[:n1], costs[n1:]
    return CostReport(
        level1_costs=tuple(level1),
        level2_costs=tuple(level2),
        social_level1=sum(level1),
        social_level2=sum(level2),
        interconnection_count=links,
    )
