"""Greedy local search, the oracle of best_response_job_greedy and "greedy" dynamics.

oracles._deviation loads this module on its first greedy call, so exact
runs never compile it.
"""

from __future__ import annotations

from typing import Callable, Iterator, Sequence

from .graph import VertexSet


def _local_step_candidates(current: VertexSet, universe: Sequence[int]) -> Iterator[VertexSet]:
    """Single-element adds, drops, then swaps, each in ascending order."""
    outside = [v for v in universe if v not in current]
    inside = sorted(current)
    for v in outside:
        yield current | {v}
    for v in inside:
        yield current - {v}
    for u in inside:
        for v in outside:
            yield (current - {u}) | {v}


def _local_search(
    start: VertexSet, universe: Sequence[int], evaluate: Callable[[VertexSet], float]
) -> tuple[VertexSet, float]:
    """Apply the best strictly improving add, drop or swap until none exists."""
    current = frozenset(start)
    cost = evaluate(current)
    while True:
        best_cand: VertexSet | None = None
        best_cost = cost
        for cand in _local_step_candidates(current, universe):
            c = evaluate(cand)
            if c < best_cost:
                best_cand, best_cost = cand, c
        if best_cand is None:
            return current, cost
        current, cost = best_cand, best_cost
