"""Best-response oracles, improvement dynamics, and equilibrium analysis.

All enumeration is exhaustive and deterministic: candidate strategies are
scanned by increasing size and then lexicographic member order, and only a
strict improvement replaces the incumbent, so ties always resolve to the
smallest, lexicographically first set.

The joint level-2 analyses (social optimum, equilibrium enumeration, price
of anarchy) share one pass over all 2^(n1*n2) job profiles.  It evaluates
job costs once per multiset of the other jobs' strategies and reads every
profile's social cost and equilibrium status from those cost tables, so a
profile never re-solves a best response (see _level2_scan).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator, Sequence

from .errors import GuardExceeded, NoEquilibriumError, PolicyError
from .graph import Graph, VertexSet, is_connected, is_dominating_set, min_dominating_set
from .model import (
    GameConfig,
    GameState,
    Level2Profile,
    TransitPolicy,
    edge_fog_player_cost,
    job_player_cost,
    social_cost_level2,
)

EXACT_ENUMERATION_GUARD = 20
JOINT_ENUMERATION_GUARD = 12


class Level(Enum):
    LEVEL1 = "level1"
    LEVEL2 = "level2"


class Scope(Enum):
    """Which player levels an equilibrium notion quantifies over."""

    LEVEL1 = "level1"
    LEVEL2 = "level2"
    BOTH = "both"


@dataclass(frozen=True)
class DeviationWitness:
    """A strictly profitable deviation found for one player."""

    level: Level
    player: int
    current_cost: float
    better_strategy: VertexSet
    better_cost: float


def _candidate_sets(universe: Sequence[int]) -> Iterator[VertexSet]:
    for k in range(len(universe) + 1):
        for combo in itertools.combinations(universe, k):
            yield frozenset(combo)


def best_response_job_exact(
    j: int, state: GameState, cfg: GameConfig, guard: int = EXACT_ENUMERATION_GUARD
) -> tuple[VertexSet, float]:
    """Cost-minimal strategy for job j against the rest of the state.

    Enumerates all 2^n1 subsets; refuses when n1 exceeds the guard.
    """
    n1 = state.n1
    if n1 > guard:
        raise GuardExceeded("exact best-response enumeration", guard, n1)
    best_set: VertexSet | None = None
    best_cost = 0.0
    for cand in _candidate_sets(range(n1)):
        cost = job_player_cost(j, state.with_level2_strategy(j, cand), cfg)
        if best_set is None or cost < best_cost:
            best_set, best_cost = cand, cost
    assert best_set is not None
    return best_set, best_cost


def best_response_fog_exact(
    i: int, state: GameState, cfg: GameConfig, guard: int = EXACT_ENUMERATION_GUARD
) -> tuple[VertexSet, float]:
    """Cost-minimal purchase set for fog player i; profile mode only."""
    if not state.profile_mode:
        raise PolicyError("fog best response needs profile mode, not a fixed graph")
    n1 = state.n1
    if n1 > guard:
        raise GuardExceeded("exact best-response enumeration", guard, n1)
    universe = [v for v in range(n1) if v != i]
    best_set: VertexSet | None = None
    best_cost = 0.0
    for cand in _candidate_sets(universe):
        cost = edge_fog_player_cost(i, state.with_level1_strategy(i, cand), cfg)
        if best_set is None or cost < best_cost:
            best_set, best_cost = cand, cost
    assert best_set is not None
    return best_set, best_cost


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


def best_response_job_greedy(
    j: int, state: GameState, cfg: GameConfig
) -> tuple[VertexSet, float]:
    """Local search from the current strategy.

    Applies the best strictly improving add, drop, or swap until none
    exists.  May stop at a local optimum above the exact best response.
    """
    return _local_search(
        state.level2.strategies[j],
        range(state.n1),
        lambda cand: job_player_cost(j, state.with_level2_strategy(j, cand), cfg),
    )


def _best_response_fog_greedy(
    i: int, state: GameState, cfg: GameConfig
) -> tuple[VertexSet, float]:
    if not state.profile_mode:
        raise PolicyError("fog best response needs profile mode, not a fixed graph")
    universe = [v for v in range(state.n1) if v != i]
    return _local_search(
        state.level1.strategies[i],
        universe,
        lambda cand: edge_fog_player_cost(i, state.with_level1_strategy(i, cand), cfg),
    )


def _scoped_players(state: GameState, scope: Scope) -> list[tuple[Level, int]]:
    players: list[tuple[Level, int]] = []
    if scope in (Scope.LEVEL1, Scope.BOTH):
        if not state.profile_mode:
            raise PolicyError("level-1 scope needs profile mode, not a fixed graph")
        players.extend((Level.LEVEL1, i) for i in range(state.n1))
    if scope in (Scope.LEVEL2, Scope.BOTH):
        players.extend((Level.LEVEL2, j) for j in range(state.n2))
    return players


def _current_cost(level: Level, player: int, state: GameState, cfg: GameConfig) -> float:
    if level is Level.LEVEL1:
        return edge_fog_player_cost(player, state, cfg)
    return job_player_cost(player, state, cfg)


def _exact_oracle(
    level: Level, player: int, state: GameState, cfg: GameConfig, guard: int
) -> tuple[VertexSet, float]:
    if level is Level.LEVEL1:
        return best_response_fog_exact(player, state, cfg, guard)
    return best_response_job_exact(player, state, cfg, guard)


def is_nash(
    state: GameState,
    cfg: GameConfig,
    scope: Scope,
    guard: int = EXACT_ENUMERATION_GUARD,
) -> tuple[bool, DeviationWitness | None]:
    """Exact equilibrium check over the scoped players.

    Returns the first strictly profitable deviation in ascending player
    order (level-1 players before level-2 players under Scope.BOTH).
    """
    for level, player in _scoped_players(state, scope):
        current = _current_cost(level, player, state, cfg)
        better_set, better_cost = _exact_oracle(level, player, state, cfg, guard)
        if better_cost < current:
            return False, DeviationWitness(level, player, current, better_set, better_cost)
    return True, None


class DynamicsOutcome(Enum):
    CONVERGED = "converged"
    CYCLE_DETECTED = "cycle_detected"
    BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass(frozen=True)
class Move:
    """One strictly improving strategy change during dynamics."""

    level: Level
    player: int
    old_strategy: VertexSet
    new_strategy: VertexSet
    cost_before: float
    cost_after: float

    @property
    def delta(self) -> float:
        return self.cost_after - self.cost_before


@dataclass(frozen=True)
class DynamicsTrace:
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
    guard: int = EXACT_ENUMERATION_GUARD,
) -> DynamicsTrace:
    """Iterated strict-improvement best responses.

    schedule is "round_robin" (fixed ascending order) or
    "random_permutation" (reshuffled each round with the given seed).
    oracle is "exact" or "greedy".  A player moves only when the oracle
    strictly beats its current cost.  Stops on a full pass without moves
    (CONVERGED), on revisiting an earlier state (CYCLE_DETECTED), or when
    max_rounds passes are spent (BUDGET_EXHAUSTED).
    """
    if schedule not in ("round_robin", "random_permutation"):
        raise ValueError(f"unknown schedule {schedule!r}")
    if oracle not in ("exact", "greedy"):
        raise ValueError(f"unknown oracle {oracle!r}")
    if max_rounds < 0:
        raise ValueError(f"max_rounds must be non-negative, got {max_rounds}")
    players = _scoped_players(state, scope)
    rng = random.Random(seed)
    seen: dict[GameState, int] = {state: 0}
    moves: list[Move] = []
    for round_index in range(max_rounds):
        if schedule == "round_robin":
            order = players
        else:
            order = rng.sample(players, len(players))
        moved = False
        for level, player in order:
            current = _current_cost(level, player, state, cfg)
            if oracle == "exact":
                cand, cand_cost = _exact_oracle(level, player, state, cfg, guard)
            elif level is Level.LEVEL1:
                cand, cand_cost = _best_response_fog_greedy(player, state, cfg)
            else:
                cand, cand_cost = best_response_job_greedy(player, state, cfg)
            if cand_cost < current:
                old = (
                    state.level1.strategies[player]
                    if level is Level.LEVEL1
                    else state.level2.strategies[player]
                )
                if level is Level.LEVEL1:
                    state = state.with_level1_strategy(player, cand)
                else:
                    state = state.with_level2_strategy(player, cand)
                moves.append(Move(level, player, old, cand, current, cand_cost))
                moved = True
                if state in seen:
                    return DynamicsTrace(
                        moves=tuple(moves),
                        outcome=DynamicsOutcome.CYCLE_DETECTED,
                        final_state=state,
                        rounds_used=round_index + 1,
                        cycle_period=len(moves) - seen[state],
                    )
                seen[state] = len(moves)
        if not moved:
            return DynamicsTrace(
                moves=tuple(moves),
                outcome=DynamicsOutcome.CONVERGED,
                final_state=state,
                rounds_used=round_index + 1,
            )
    return DynamicsTrace(
        moves=tuple(moves),
        outcome=DynamicsOutcome.BUDGET_EXHAUSTED,
        final_state=state,
        rounds_used=max_rounds,
    )


def _fixed_state(g1: Graph, profile: Level2Profile) -> GameState:
    return GameState(g1, profile, allow_unequal=True)


def _check_joint_size(n1: int, n2: int, joint_guard: int) -> None:
    if n2 < 0:
        raise ValueError(f"n2 must be non-negative, got {n2}")
    if n1 * n2 > joint_guard:
        raise GuardExceeded("joint profile enumeration", joint_guard, n1 * n2)


def _joint_candidates(n1: int, n2: int) -> list[VertexSet]:
    """Per-job strategies in _candidate_sets order; none are needed without jobs."""
    return list(_candidate_sets(range(n1))) if n2 else []


def _profile(n1: int, cands: list[VertexSet], indices: tuple[int, ...]) -> Level2Profile:
    return Level2Profile(n1, tuple(cands[i] for i in indices))


def _level2_scan(
    g1: Graph, cands: list[VertexSet], n2: int, cfg: GameConfig
) -> Iterator[tuple[tuple[int, ...], float, bool]]:
    """Every level-2 profile once, as (candidate indices, social cost, is NE).

    Profiles come in itertools.product order over indices into cands.  A
    job's cost depends only on its own strategy and on the multiset of the
    other jobs' strategies (distances are integer hop counts, so which job
    holds which strategy cannot change a sum), so one cost table per
    sorted tuple of the others' indices serves every job and profile with
    that multiset.  A table holds the job's cost for each own candidate
    plus its minimum, which is the exact best-response cost; a profile is
    an equilibrium iff no job's cost exceeds its table minimum.  Tables
    live for one scan, which costs C(2^n1 + n2 - 2, n2 - 1) * 2^n1 job-cost
    evaluations in total instead of n2 * 2^(n1*n2) * 2^n1.
    """
    tables: dict[tuple[int, ...], tuple[tuple[float, ...], float]] = {}
    for indices in itertools.product(range(len(cands)), repeat=n2):
        costs = []
        stable = True
        for j, own in enumerate(indices):
            others = tuple(sorted(indices[:j] + indices[j + 1 :]))
            table = tables.get(others)
            if table is None:
                rest = tuple(cands[i] for i in others)
                row = tuple(
                    job_player_cost(0, _fixed_state(g1, Level2Profile(g1.n, (c,) + rest)), cfg)
                    for c in cands
                )
                table = tables[others] = (row, min(row))
            row, best = table
            costs.append(row[own])
            if best < row[own]:
                stable = False
        yield indices, sum(costs), stable


def social_optimum_level2(
    g1: Graph,
    n2: int,
    cfg: GameConfig,
    method: str = "exhaustive_joint",
    joint_guard: int = JOINT_ENUMERATION_GUARD,
    guard: int = EXACT_ENUMERATION_GUARD,
) -> tuple[float, Level2Profile]:
    """Minimum level-2 social cost over job profiles, with the minimizer.

    "exhaustive_joint" reads all 2^(n1*n2) profiles from the one-pass
    cost-table scan (see _level2_scan), C(2^n1 + n2 - 2, n2 - 1) * 2^n1
    job-cost evaluations, and works under any transit policy; the first
    profile with the strictly smallest cost wins.
    "separable_per_job" optimizes one job and replicates the result; it
    requires FOG_ONLY transit, where job costs do not interact, and
    rejects other policies.
    """
    if n2 < 0:
        raise ValueError(f"n2 must be non-negative, got {n2}")
    if method == "exhaustive_joint":
        _check_joint_size(g1.n, n2, joint_guard)
        cands = _joint_candidates(g1.n, n2)
        best_cost = 0.0
        best: tuple[int, ...] | None = None
        for indices, cost, _ in _level2_scan(g1, cands, n2, cfg):
            if best is None or cost < best_cost:
                best_cost, best = cost, indices
        assert best is not None
        return best_cost, _profile(g1.n, cands, best)
    if method == "separable_per_job":
        if cfg.transit_policy is not TransitPolicy.FOG_ONLY:
            raise PolicyError(
                "separable per-job optimization requires fog-only transit; "
                "job costs interact under full combined routing"
            )
        if g1.n > guard:
            raise GuardExceeded("exact best-response enumeration", guard, g1.n)
        probe = _fixed_state(g1, Level2Profile(g1.n, (frozenset(),)))
        best_set, _ = best_response_job_exact(0, probe, cfg, guard)
        profile = Level2Profile(g1.n, (best_set,) * n2)
        return social_cost_level2(_fixed_state(g1, profile), cfg), profile
    raise ValueError(f"unknown method {method!r}")


def enumerate_nash_level2(
    g1: Graph,
    n2: int,
    cfg: GameConfig,
    joint_guard: int = JOINT_ENUMERATION_GUARD,
) -> list[tuple[Level2Profile, float]]:
    """All pure level-2 equilibria with the fog graph held fixed.

    Equilibria come from the one-pass cost-table scan (see _level2_scan),
    in its profile order, each with its social cost.  A profile is kept
    when every job's cost equals the minimum of its cost table, which
    matches is_nash under Scope.LEVEL2 exactly, at C(2^n1 + n2 - 2, n2 - 1)
    * 2^n1 job-cost evaluations for the whole enumeration.
    """
    _check_joint_size(g1.n, n2, joint_guard)
    cands = _joint_candidates(g1.n, n2)
    return [
        (_profile(g1.n, cands, indices), cost)
        for indices, cost, stable in _level2_scan(g1, cands, n2, cfg)
        if stable
    ]


@dataclass(frozen=True)
class PoAReport:
    """Worst equilibrium cost relative to the social optimum."""

    optimum_cost: float
    optimum_profile: Level2Profile
    worst_ne_cost: float
    worst_ne_profile: Level2Profile
    poa: float
    ne_count: int


def empirical_poa(
    g1: Graph,
    n2: int,
    cfg: GameConfig,
    joint_guard: int = JOINT_ENUMERATION_GUARD,
) -> PoAReport:
    """Price of anarchy by full enumeration of level-2 profiles.

    One pass of the cost-table scan (see _level2_scan) gives the optimum
    (first strict minimum), the worst equilibrium (first strict maximum
    among equilibria) and the equilibrium count, with the same results as
    social_optimum_level2 and enumerate_nash_level2, for the
    C(2^n1 + n2 - 2, n2 - 1) * 2^n1 job-cost evaluations of a single scan.
    Only the two reported profiles are built.

    Raises NoEquilibriumError when no pure equilibrium exists and
    ValueError when the optimum social cost is not positive, which can
    happen under TYPE_I where costs may reach zero or below.
    """
    _check_joint_size(g1.n, n2, joint_guard)
    cands = _joint_candidates(g1.n, n2)
    optimum_cost = worst_cost = 0.0
    optimum: tuple[int, ...] | None = None
    worst: tuple[int, ...] | None = None
    ne_count = 0
    for indices, cost, stable in _level2_scan(g1, cands, n2, cfg):
        if optimum is None or cost < optimum_cost:
            optimum_cost, optimum = cost, indices
        if stable:
            ne_count += 1
            if worst is None or cost > worst_cost:
                worst_cost, worst = cost, indices
    assert optimum is not None
    if worst is None:
        raise NoEquilibriumError(f"no pure level-2 equilibrium (n1={g1.n}, n2={n2})")
    if optimum_cost <= 0:
        raise ValueError(
            f"price of anarchy undefined for non-positive optimum cost {optimum_cost}"
        )
    return PoAReport(
        optimum_cost=optimum_cost,
        optimum_profile=_profile(g1.n, cands, optimum),
        worst_ne_cost=worst_cost,
        worst_ne_profile=_profile(g1.n, cands, worst),
        poa=worst_cost / optimum_cost,
        ne_count=ne_count,
    )


def construct_complete_bipartite(n1: int, n2: int) -> Level2Profile:
    """Every job buys a link to every fog vertex."""
    return Level2Profile(n1, (frozenset(range(n1)),) * n2)


def construct_mds_profile(g1: Graph, n2: int) -> Level2Profile:
    """Every job buys links to one minimum dominating set of g1."""
    if not is_connected(g1):
        raise ValueError("dominating-set profile needs a connected fog graph")
    mds = min_dominating_set(g1)
    return Level2Profile(g1.n, (mds,) * n2)


@dataclass(frozen=True)
class DominationDiagnostic:
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


def domination_diagnostic(
    g1: Graph, cfg: GameConfig, guard: int = EXACT_ENUMERATION_GUARD
) -> DominationDiagnostic:
    """Exact best response of a single job against empty co-players."""
    empty = Level2Profile(g1.n, (frozenset(),) * g1.n)
    state = GameState(g1, empty)
    strategy, cost = best_response_job_exact(0, state, cfg, guard)
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
