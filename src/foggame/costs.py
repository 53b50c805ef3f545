"""The cost mode: every player's cost and the social totals of one state.

A scenario loads this module in the `cost` and `bounds` modes only, and
verify through foggame.bounds; poa, nash and dynamics runs never compile
it, and read the report's guard, model.COST_PAIR_GUARD, without it.
"""

from __future__ import annotations

from typing import NamedTuple

from .model import GameConfig, GameState, _player_costs, interconnection_count


class CostReport(NamedTuple):
    """Per-player costs plus the social totals of one state."""

    level1_costs: tuple[float, ...]
    level2_costs: tuple[float, ...]
    social_level1: float
    social_level2: float
    interconnection_count: int


def cost_report(state: GameState, cfg: GameConfig) -> CostReport:
    """Evaluate every player once; the social totals are exact sums.

    Refused past model.COST_PAIR_GUARD.  The costs are edge_fog_player_cost's
    and job_player_cost's, from the same list-BFS pricing of the state
    (model._player_costs), every BFS on one adjacency list.
    """
    n1, n2 = state.n1, state.n2
    costs = _player_costs(state, cfg, range(n1), range(n2))
    level1, level2 = costs[:n1], costs[n1:]
    return CostReport(
        level1_costs=tuple(level1),
        level2_costs=tuple(level2),
        social_level1=sum(level1),
        social_level2=sum(level2),
        interconnection_count=interconnection_count(state.level2),
    )
