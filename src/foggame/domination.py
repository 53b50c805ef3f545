"""Minimum dominating sets and the dominating-set structure of job best responses.

A lone job's exact best response under TYPE_II costs with 1 < beta < 2 is
a minimum dominating set of the fog graph.  Only the bounds and verify
modes read this module, so a CLI run of any other mode does not load it.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple

from .equilibrium import best_response_job_exact
from .errors import GuardExceeded
from .graph import Graph, VertexSet, closed_neighborhood_masks, is_connected
from .model import GameConfig, GameState, Level2Profile

# Enumeration limit, read at call time: setting it on this module (for
# instance with setattr) moves it for every later call.
DOMSET_ENUMERATION_GUARD = 24  # vertices of an exact minimum dominating set


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


def construct_complete_bipartite(n1: int, n2: int) -> Level2Profile:
    """Every job buys a link to every fog vertex."""
    return Level2Profile(n1, (frozenset(range(n1)),) * n2)


def construct_mds_profile(g1: Graph, n2: int) -> Level2Profile:
    """Every job buys links to one minimum dominating set of g1."""
    if not is_connected(g1):
        raise ValueError("dominating-set profile needs a connected fog graph")
    mds = min_dominating_set(g1)
    return Level2Profile(g1.n, (mds,) * n2)


class DominationDiagnostic(NamedTuple):
    """Whether a lone job's exact best response is a minimum dominating set.

    That structure is guaranteed for TYPE_II costs with 1 < beta < 2 only;
    outside that range the report flags any departure instead of treating
    it as an error.
    """

    strategy: VertexSet
    cost: float
    is_dominating: bool
    strategy_size: int
    min_dominating_size: int
    beta: float
    beta_in_supported_range: bool
    consistent: bool
    note: str


def domination_diagnostic(g1: Graph, cfg: GameConfig) -> DominationDiagnostic:
    """Exact best response of a single job against empty co-players."""
    empty = Level2Profile(g1.n, (frozenset(),) * g1.n)
    state = GameState(g1, empty)
    strategy, cost = best_response_job_exact(0, state, cfg)
    gamma = len(min_dominating_set(g1))
    dominating = is_dominating_set(g1, strategy)
    in_range = 1 < cfg.beta < 2
    consistent = dominating and len(strategy) == gamma
    if consistent:
        note = "best response matches minimum-dominating-set structure"
        if not in_range:
            note += " although beta is outside the supported range (1, 2)"
    elif in_range:
        note = "unexpected: best response departs from dominating-set structure inside (1, 2)"
    else:
        note = (
            "best response departs from dominating-set structure; that structure "
            "is only guaranteed for beta strictly between 1 and 2"
        )
    return DominationDiagnostic(
        strategy=strategy,
        cost=cost,
        is_dominating=dominating,
        strategy_size=len(strategy),
        min_dominating_size=gamma,
        beta=cfg.beta,
        beta_in_supported_range=in_range,
        consistent=consistent,
        note=note,
    )
