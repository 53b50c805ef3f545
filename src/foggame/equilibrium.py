"""Best-response oracles, improvement dynamics, and equilibrium analysis.

All enumeration is exhaustive and deterministic: candidate strategies are
scanned by increasing size and then lexicographic member order, and only a
strict improvement replaces the incumbent, so ties always resolve to the
smallest, lexicographically first set.

Every best response, exact or greedy, prices its candidates on one
player's distance layers (see kernel.DeviationRows), one integer OR and
one bit count each.  An exact one scans sizes in increasing order and
stops once no larger size's cost floor lies below its incumbent, and its
costs equal job_player_cost and edge_fog_player_cost exactly.

A job's rows depend on g1 and its lend key alone (see foggame.kernel), so
is_nash and dynamics keep one answer per key for their call.  The joint
level-2 analyses (optimum, equilibrium enumeration, price of anarchy)
walk lend classes in foggame.joint; foggame.greedy holds the greedy local
search.  Both load on first call, so a run compiles only what it uses.
"""

from __future__ import annotations

import itertools
import math
import random
from enum import Enum
from typing import NamedTuple

from .errors import GuardExceeded, NoEquilibriumError, PolicyError
from .graph import Graph, VertexSet
from .kernel import DeviationRows, fog_deviation_rows, job_rows, lend_keys, lent_pairs
from .model import GameConfig, GameState, Level2Profile, _check_player, _within_job_guard

# Enumeration limits, read at call time: setting one on this module (for
# instance with setattr) moves it for every later call.
EXACT_ENUMERATION_GUARD = 20  # fog vertices of an exact best response
JOINT_ENUMERATION_GUARD = 15  # n1 * n2 of the joint level-2 analyses
SCHEDULES = ("round_robin", "random_permutation")


class Scope(Enum):
    """Which player levels an equilibrium notion quantifies over.

    A single player's level is LEVEL1 or LEVEL2, never BOTH.
    """

    LEVEL1 = "level1"
    LEVEL2 = "level2"
    BOTH = "both"


class DeviationWitness(NamedTuple):
    """A strictly profitable deviation found for one player."""

    level: Scope
    player: int
    current_cost: float
    better_strategy: VertexSet
    better_cost: float


def _exact_best(rows: DeviationRows) -> tuple[VertexSet, float]:
    """First candidate with the strictly smallest cost, in scan order.

    Stops asking the scan for larger sizes once none of their floors (see
    DeviationRows.floors) lies below the incumbent: no larger candidate
    can then strictly beat it, and ties never replace it.
    """
    floors = rows.floors()
    best_k = best_i = -1
    best_cost = 0.0
    for k, costs in enumerate(rows.scan()):
        cost = min(costs)
        if best_k < 0 or cost < best_cost:
            best_k, best_i, best_cost = k, costs.index(cost), cost
        if min(floors[k + 1 :], default=math.inf) >= best_cost:
            break
    members = itertools.combinations(rows.universe, best_k)
    return frozenset(next(itertools.islice(members, best_i, None))), best_cost


def _check_exact_size(n1: int) -> None:
    guard = EXACT_ENUMERATION_GUARD
    if n1 > guard:
        raise GuardExceeded("exact best-response enumeration", guard, n1)


def best_response_job_exact(j: int, state: GameState, cfg: GameConfig) -> tuple[VertexSet, float]:
    """Cost-minimal strategy for job j against the rest of the state.

    Scans the subsets by size over the job's distance layers (n1 bitmask
    BFS, then one mask OR per subset) and stops once no larger size can
    strictly beat the best so far: at most 2^n1 ORs, and at beta = 1.5 on
    a path of 20 fog vertices only sizes 0..7, 137,980 of 1,048,576.
    Refuses when n1 exceeds EXACT_ENUMERATION_GUARD.
    """
    return _deviation(Scope.LEVEL2, j, state, cfg, "exact", None)[2:]


def best_response_fog_exact(i: int, state: GameState, cfg: GameConfig) -> tuple[VertexSet, float]:
    """Cost-minimal purchase set for fog player i; profile mode only.

    Scans the purchase sets by size over the player's distance layers
    (n1 - 1 bitmask BFS, then one mask OR per set) and stops once no
    larger size can strictly beat the best so far: at most 2^(n1-1) ORs.
    Refuses when n1 exceeds EXACT_ENUMERATION_GUARD.
    """
    return _deviation(Scope.LEVEL1, i, state, cfg, "exact", None)[2:]


def best_response_job_greedy(
    j: int, state: GameState, cfg: GameConfig
) -> tuple[VertexSet, float]:
    """Local search from the current strategy.

    Applies the best strictly improving add, drop, or swap until none
    exists, pricing candidates on the job's distance rows.  May stop at a
    local optimum above the exact best response.
    """
    return _deviation(Scope.LEVEL2, j, state, cfg, "greedy", None)[2:]


def _scoped_players(state: GameState, scope: Scope) -> list[tuple[Scope, int]]:
    players: list[tuple[Scope, int]] = []
    if scope in (Scope.LEVEL1, Scope.BOTH):
        if not state.profile_mode:
            raise PolicyError("level-1 scope needs profile mode, not a fixed graph")
        players.extend((Scope.LEVEL1, i) for i in range(state.n1))
    if scope in (Scope.LEVEL2, Scope.BOTH):
        players.extend((Scope.LEVEL2, j) for j in range(state.n2))
    return players


def _job_key(j: int, state: GameState, cfg: GameConfig, memo: dict | None) -> int:
    """Job j's lend key; without memo, as in a lone best response, no lend is kept.

    memo keeps each strategy's lend on g1 and, under None, the last state
    with its key rule; a new state first empties it past 4 * n2 entries.
    """
    g1, jobs = state.g1, state.level2.strategies
    if memo is None:
        return lend_keys(lent_pairs(g1, s, cfg) for s in jobs)(lent_pairs(g1, jobs[j], cfg))
    if memo.get(None, (None,))[0] is not state:
        if len(memo) > 4 * len(jobs):
            memo.clear()
        memo.update((k, lent_pairs(*k, cfg)) for k in {(g1, s) for s in jobs}.difference(memo))
        memo[None] = state, lend_keys(memo[g1, s] for s in jobs)
    return memo[None][1](memo[g1, jobs[j]])


def _deviation(
    level: Scope, player: int, state: GameState, cfg: GameConfig, oracle: str, memo: dict | None
) -> tuple[VertexSet, float, VertexSet, float]:
    """Current strategy and cost of a player and the oracle's answer.

    Both costs come from one set of distance rows.  oracle is "exact"
    (guarded) or "greedy"; is_nash and dynamics pass a memo for their call,
    which keeps one (rows, exact answer) per job (g1, key).  A fog player
    needs profile mode (PolicyError), checked before the guard, then the
    player index (ValueError).
    """
    if level is Scope.LEVEL1 and not state.profile_mode:
        raise PolicyError("fog best response needs profile mode, not a fixed graph")
    if oracle == "exact":
        _check_exact_size(state.n1)
    if level is Scope.LEVEL1:
        rows, answer = fog_deviation_rows(player, state, cfg), None
        current = state.level1.strategies[player]
    else:
        _check_player("job", player, state.n2)
        current = state.level2.strategies[player]
        key = state.g1, _job_key(player, state, cfg, memo)
        rows, answer = memo[key] if memo and key in memo else (job_rows(*key, cfg), None)
    if oracle == "greedy":
        from .greedy import _local_search

        answer = _local_search(current, rows.universe, rows.evaluate)
    elif answer is None:
        answer = _exact_best(rows)
        if level is Scope.LEVEL2 and memo is not None:
            memo[key] = rows, answer
    return current, rows.evaluate(current), *answer


def is_nash(
    state: GameState, cfg: GameConfig, scope: Scope
) -> tuple[bool, DeviationWitness | None]:
    """Exact equilibrium check over the scoped players.

    Returns the first strictly profitable deviation in ascending player
    order (level-1 players before level-2 players under Scope.BOTH).
    """
    memo: dict = {}
    for level, player in _scoped_players(state, scope):
        _, current, better_set, better_cost = _deviation(level, player, state, cfg, "exact", memo)
        if better_cost < current:
            return False, DeviationWitness(level, player, current, better_set, better_cost)
    return True, None


class DynamicsOutcome(Enum):
    CONVERGED = "converged"
    CYCLE_DETECTED = "cycle_detected"
    BUDGET_EXHAUSTED = "budget_exhausted"


class Move(NamedTuple):
    """One strictly improving strategy change during dynamics."""

    level: Scope
    player: int
    old_strategy: VertexSet
    new_strategy: VertexSet
    cost_before: float
    cost_after: float

    @property
    def delta(self) -> float:
        return self.cost_after - self.cost_before


class DynamicsTrace(NamedTuple):
    """Move log and stopping condition of one dynamics run.

    With the exact oracle a CONVERGED trace ends in a state that passes
    is_nash for the same scope.  cycle_period counts moves between the two
    visits of the repeated state.
    """

    moves: tuple[Move, ...]
    outcome: DynamicsOutcome
    final_state: GameState
    rounds_used: int
    cycle_period: int | None = None


def best_response_dynamics(
    state: GameState,
    cfg: GameConfig,
    scope: Scope,
    schedule: str = "round_robin",
    seed: int = 0,
    max_rounds: int = 100,
    oracle: str = "exact",
) -> DynamicsTrace:
    """Iterated strict-improvement best responses.

    schedule is "round_robin" (fixed ascending order) or
    "random_permutation" (reshuffled each round with the given seed).
    oracle is "exact" or "greedy".  A player moves only when the oracle
    strictly beats its current cost.  Stops on a full pass without moves
    (CONVERGED), on revisiting an earlier state (CYCLE_DETECTED), or when
    max_rounds passes are spent (BUDGET_EXHAUSTED).
    """
    if schedule not in SCHEDULES:
        raise ValueError(f"unknown schedule {schedule!r}")
    if oracle not in ("exact", "greedy"):
        raise ValueError(f"unknown oracle {oracle!r}")
    if max_rounds < 0:
        raise ValueError(f"max_rounds must be non-negative, got {max_rounds}")
    players = _scoped_players(state, scope)
    rng = random.Random(seed)
    seen: dict[GameState, int] = {state: 0}
    moves: list[Move] = []
    memo: dict = {}
    for round_index in range(max_rounds):
        order = players if schedule == "round_robin" else rng.sample(players, len(players))
        moved = False
        for level, player in order:
            old, current, cand, cand_cost = _deviation(level, player, state, cfg, oracle, memo)
            if cand_cost < current:
                if level is Scope.LEVEL1:
                    state = state.with_level1_strategy(player, cand)
                else:
                    state = state.with_level2_strategy(player, cand)
                moves.append(Move(level, player, old, cand, current, cand_cost))
                moved = True
                if state in seen:
                    outcome, period = DynamicsOutcome.CYCLE_DETECTED, len(moves) - seen[state]
                    return DynamicsTrace(tuple(moves), outcome, state, round_index + 1, period)
                seen[state] = len(moves)
        if not moved:
            return DynamicsTrace(tuple(moves), DynamicsOutcome.CONVERGED, state, round_index + 1)
    return DynamicsTrace(tuple(moves), DynamicsOutcome.BUDGET_EXHAUSTED, state, max_rounds)


def _check_joint_size(n1: int, n2: int) -> None:
    """Refuse a joint level-2 analysis whose n1 * n2 exceeds JOINT_ENUMERATION_GUARD.

    The analyses walk at most 2^(n1*n2) class vectors (one per profile
    when every candidate is its own class) and fill one table of 2^n1 job
    costs per lend key, the far pairs the other jobs lend, at most one
    per vector, so n1 * n2 bounds both; enumerate_nash_level2 also lists
    up to 2^(n1*n2) equilibria.
    """
    if n2 < 0:
        raise ValueError(f"n2 must be non-negative, got {n2}")
    guard = JOINT_ENUMERATION_GUARD
    if n1 * n2 > guard:
        raise GuardExceeded("joint profile enumeration", guard, n1 * n2)


def social_optimum_level2(g1: Graph, n2: int, cfg: GameConfig) -> tuple[float, Level2Profile]:
    """Minimum level-2 social cost over job profiles, with the minimizer.

    Reads the lend-class vectors (see joint._joint_extremes), not all
    2^(n1*n2) profiles; the first profile with the strictly smallest cost
    wins.  Refuses when n1 * n2 exceeds JOINT_ENUMERATION_GUARD, or n2
    exceeds COST_PAIR_GUARD (with no fog vertices the walk is over n2 jobs).
    """
    _check_joint_size(g1.n, n2)
    _within_job_guard(n2)
    from .joint import _joint_extremes, _profile

    cands, least, optimum, *_ = _joint_extremes(g1, n2, cfg)
    return least, _profile(g1.n, cands, optimum)


def enumerate_nash_level2(
    g1: Graph, n2: int, cfg: GameConfig
) -> list[tuple[Level2Profile, float]]:
    """All pure level-2 equilibria with the fog graph held fixed.

    Each lend-class vector (see joint._class_walk) contributes the product
    of its jobs' equilibrium members, every job at its table minimum,
    which matches is_nash under Scope.LEVEL2 exactly; the equilibria come
    in profile order, each with its social cost.  Refuses when n1 * n2
    exceeds JOINT_ENUMERATION_GUARD, or n2 exceeds COST_PAIR_GUARD.
    """
    _check_joint_size(g1.n, n2)
    _within_job_guard(n2)
    from .joint import _class_walk, _joint_candidates, _profile

    cands = _joint_candidates(g1.n, n2)
    found = []
    for jobs in _class_walk(g1, cands, n2, cfg):
        cost = sum([job[2] for job in jobs])
        found.extend((picks, cost) for picks in itertools.product(*(job[1] for job in jobs)))
    found.sort()
    return [(_profile(g1.n, cands, picks), cost) for picks, cost in found]


class PoAReport(NamedTuple):
    """Worst equilibrium cost relative to the social optimum."""

    optimum_cost: float
    optimum_profile: Level2Profile
    worst_ne_cost: float
    worst_ne_profile: Level2Profile
    poa: float
    ne_count: int


def _check_poa_optimum(optimum_cost: float) -> None:
    """Refuse an optimum the PoA cannot divide by: not positive, or infinite."""
    if optimum_cost <= 0:
        raise ValueError(
            f"price of anarchy undefined for non-positive optimum cost {optimum_cost}"
        )
    if optimum_cost == math.inf:
        raise ValueError("price of anarchy undefined for infinite optimum cost")


def empirical_poa(g1: Graph, n2: int, cfg: GameConfig) -> PoAReport:
    """Price of anarchy over all level-2 profiles.

    One walk over the lend-class vectors (see joint._joint_extremes) gives
    the optimum (first strict minimum), the worst equilibrium (first
    strict maximum among equilibria) and the equilibrium count, with the
    same results as social_optimum_level2 and enumerate_nash_level2.  Only
    the two reported profiles are built.  Refuses when n1 * n2 exceeds
    JOINT_ENUMERATION_GUARD.

    Raises NoEquilibriumError when no pure equilibrium exists and
    ValueError when the optimum social cost is not positive, which can
    happen under TYPE_I where costs may reach zero or below, or infinite,
    which a float sum of huge job costs can reach (the ratio would be NaN).
    """
    _check_joint_size(g1.n, n2)
    if g1.n == 0:  # every job's only strategy, the empty set, costs 0.0, whatever n2
        _check_poa_optimum(0.0 if n2 else 0)
    from .joint import _joint_extremes, _profile

    cands, optimum_cost, optimum, worst_cost, worst, ne_count = _joint_extremes(g1, n2, cfg)
    if worst is None:
        raise NoEquilibriumError(f"no pure level-2 equilibrium (n1={g1.n}, n2={n2})")
    _check_poa_optimum(optimum_cost)
    return PoAReport(
        optimum_cost=optimum_cost,
        optimum_profile=_profile(g1.n, cands, optimum),
        worst_ne_cost=worst_cost,
        worst_ne_profile=_profile(g1.n, cands, worst),
        poa=worst_cost / optimum_cost,
        ne_count=ne_count,
    )
