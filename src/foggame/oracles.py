"""Per-player oracle engine: the exact scan, deviations, and the is_nash and dynamics loops.

The public best responses, is_nash and best_response_dynamics (in
foggame.equilibrium, the last two through its _check_run) check their
arguments and the exact guard, then load this module, and foggame.kernel
with it, on their first call: a poa run never compiles it, and a refused
call compiles neither.  The is_nash and dynamics loops list their scoped
players and refuse nothing.

A job's rows depend on g1 and its lend key alone (see foggame.kernel), so
is_nash and dynamics keep one answer per key for their call.
"""

from __future__ import annotations

import itertools
import math
import random

from .equilibrium import DeviationWitness, DynamicsOutcome, DynamicsTrace, Move, Scope
from .graph import VertexSet
from .kernel import DeviationRows, fog_deviation_rows, job_rows, lend_keys, lent_pairs
from .model import GameConfig, GameState, _check_player


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

    Both costs come from one set of distance rows.  oracle is "exact" or
    "greedy"; the caller has refused a fog player outside profile mode and
    an exact oracle past the guard.  is_nash and dynamics pass a memo for
    their call, which keeps one (rows, exact answer) per job (g1, key).
    A bad player index raises ValueError.
    """
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


def _scoped_players(state: GameState, scope: Scope) -> list[tuple[Scope, int]]:
    """The players scope quantifies over: level-1 ones first, each level ascending."""
    players: list[tuple[Scope, int]] = []
    if scope is not Scope.LEVEL2:
        players.extend((Scope.LEVEL1, i) for i in range(state.n1))
    if scope is not Scope.LEVEL1:
        players.extend((Scope.LEVEL2, j) for j in range(state.n2))
    return players


def _first_witness(
    state: GameState, cfg: GameConfig, scope: Scope
) -> tuple[bool, DeviationWitness | None]:
    """is_nash's loop: the first strictly profitable exact deviation among the scoped players."""
    memo: dict = {}
    for level, player in _scoped_players(state, scope):
        _, current, better_set, better_cost = _deviation(level, player, state, cfg, "exact", memo)
        if better_cost < current:
            return False, DeviationWitness(level, player, current, better_set, better_cost)
    return True, None


def _dynamics(
    state: GameState,
    cfg: GameConfig,
    scope: Scope,
    schedule: str,
    seed: int,
    max_rounds: int,
    oracle: str,
) -> DynamicsTrace:
    """best_response_dynamics' loop over the scoped players, its arguments already checked."""
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
