"""Best responses, improvement dynamics, and equilibrium analysis.

All enumeration is exhaustive and deterministic: candidate strategies are
scanned by increasing size and then lexicographic member order, and only a
strict improvement replaces the incumbent, so ties always resolve to the
smallest, lexicographically first set.

Every best response, exact or greedy, prices its candidates on one
player's distance layers (see kernel.DeviationRows), one integer OR and
one bit count each.  An exact one scans sizes in increasing order and
stops once no larger size's cost floor lies below its incumbent, and its
costs equal job_player_cost and edge_fog_player_cost exactly.

This module holds the public names, the guards, the records and the joint
level-2 analyses (optimum, equilibrium enumeration, price of anarchy).
Each analysis checks its arguments and guard, then loads its engine on
first call: foggame.oracles for the best responses, is_nash and dynamics
(foggame.greedy under it for the greedy oracle), foggame.joint for the
joint analyses, each with foggame.kernel.  So a run compiles only the
engine it uses, and a refused call none.  The best responses, is_nash
and dynamics state all their refusals once, in _check_run, from the
player counts alone, so foggame.scenario runs the same check before it
builds the state.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import NamedTuple

from . import model
from .errors import GuardExceeded, NoEquilibriumError, PolicyError
from .graph import Graph, VertexSet
from .model import GameConfig, GameState, Level2Profile

# Enumeration limits, read at call time: setting one on this module (for
# instance with setattr) moves it for every later call.
EXACT_ENUMERATION_GUARD = 20  # fog vertices of an exact best response
JOINT_ENUMERATION_GUARD = 2**17  # job-cost reads of the joint level-2 walk
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


def _best_response(
    level: Scope, player: int, state: GameState, cfg: GameConfig, oracle: str
) -> tuple[VertexSet, float]:
    """A lone player's answer (oracles._deviation): a one-pass run of its level.

    Refuses as _check_run does for that run, then on the player index
    (ValueError).
    """
    _check_run(level, state.n1, state.n2, state.profile_mode, oracle=oracle)
    from .oracles import _deviation

    return _deviation(level, player, state, cfg, oracle, None)[2:]


def best_response_job_exact(j: int, state: GameState, cfg: GameConfig) -> tuple[VertexSet, float]:
    """Cost-minimal strategy for job j against the rest of the state.

    Scans the subsets by size over the job's distance layers (n1 bitmask
    BFS, then one mask OR per subset) and stops once no larger size can
    strictly beat the best so far: at most 2^n1 ORs, and at beta = 1.5 on
    a path of 20 fog vertices only sizes 0..7, 137,980 of 1,048,576.
    Refuses when n1 exceeds EXACT_ENUMERATION_GUARD.
    """
    return _best_response(Scope.LEVEL2, j, state, cfg, "exact")


def best_response_fog_exact(i: int, state: GameState, cfg: GameConfig) -> tuple[VertexSet, float]:
    """Cost-minimal purchase set for fog player i; profile mode only.

    Scans the purchase sets by size over the player's distance layers
    (n1 - 1 bitmask BFS, then one mask OR per set) and stops once no
    larger size can strictly beat the best so far: at most 2^(n1-1) ORs.
    Refuses when n1 exceeds EXACT_ENUMERATION_GUARD.
    """
    return _best_response(Scope.LEVEL1, i, state, cfg, "exact")


def best_response_job_greedy(
    j: int, state: GameState, cfg: GameConfig
) -> tuple[VertexSet, float]:
    """Local search from the current strategy.

    Applies the best strictly improving add, drop, or swap until none
    exists, pricing candidates on the job's distance rows.  May stop at a
    local optimum above the exact best response.
    """
    return _best_response(Scope.LEVEL2, j, state, cfg, "greedy")


def _check_run(
    scope: Scope,
    n1: int,
    n2: int,
    profile_mode: bool,
    schedule: str = "round_robin",
    oracle: str = "exact",
    max_rounds: int = 1,
) -> None:
    """Every refusal of the best responses, is_nash and dynamics, read from the run's counts.

    In order: more jobs than model.COST_PAIR_GUARD, a bad schedule, oracle
    or max_rounds (ValueError), a level-1 scope outside profile mode
    (PolicyError), then the exact guard, only when the exact oracle would
    ask some scoped player in some round.  is_nash reads the defaults, one
    exact pass, and a lone best response one pass of its level.  Needs no
    state, so a scenario runs it before building one.
    """
    if n2 > model.COST_PAIR_GUARD:
        raise GuardExceeded("job count", model.COST_PAIR_GUARD, n2)
    if schedule not in SCHEDULES:
        raise ValueError(f"unknown schedule {schedule!r}")
    if oracle not in ("exact", "greedy"):
        raise ValueError(f"unknown oracle {oracle!r}")
    if max_rounds < 0:
        raise ValueError(f"max_rounds must be non-negative, got {max_rounds}")
    if scope is not Scope.LEVEL2 and not profile_mode:
        raise PolicyError("level-1 scope needs profile mode, not a fixed graph")
    players = n2 if scope is Scope.LEVEL2 else n1 if scope is Scope.LEVEL1 else n1 + n2
    if oracle == "exact" and max_rounds and players and n1 > EXACT_ENUMERATION_GUARD:
        raise GuardExceeded("exact best-response enumeration", EXACT_ENUMERATION_GUARD, n1)


def is_nash(
    state: GameState, cfg: GameConfig, scope: Scope
) -> tuple[bool, DeviationWitness | None]:
    """Exact equilibrium check over the scoped players.

    Returns the first strictly profitable deviation in ascending player
    order (level-1 players before level-2 players under Scope.BOTH).
    Refuses as _check_run does; the exact guard only a check that asks
    some player.
    """
    _check_run(scope, state.n1, state.n2, state.profile_mode)
    from .oracles import _first_witness

    return _first_witness(state, cfg, scope)


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
    max_rounds passes are spent (BUDGET_EXHAUSTED).  Refuses as
    _check_run does; the exact guard only a run that asks some player.
    """
    _check_run(scope, state.n1, state.n2, state.profile_mode, schedule, oracle, max_rounds)
    from .oracles import _dynamics

    return _dynamics(state, cfg, scope, schedule, seed, max_rounds, oracle)


def _check_joint_size(n1: int, n2: int, classes: int = 1) -> None:
    """Refuse a joint level-2 walk predicted to read more than JOINT_ENUMERATION_GUARD job costs.

    joint._class_walk reads n2 table entries per vector of classes, and
    fills 2^n1 costs per lend-key table, fixed by the other jobs' classes:
    W = classes^(n2-1) * (n2*classes + 2^n1), 0 without jobs.  Exponents
    are clamped at the guard's bit length, past which a term alone exceeds
    it.  Checked on the counts with one class, the fewest any graph has,
    then by the walk as each new class appears (W grows with classes).
    """
    if n2 < 0:
        raise ValueError(f"n2 must be non-negative, got {n2}")
    guard = JOINT_ENUMERATION_GUARD
    bits = guard.bit_length()
    work = classes ** min(n2 - 1, bits) * (n2 * classes + 2 ** min(n1, bits)) if n2 else 0
    if work > guard:
        raise GuardExceeded("joint profile enumeration", guard, work)


def social_optimum_level2(g1: Graph, n2: int, cfg: GameConfig) -> tuple[float, Level2Profile]:
    """Minimum level-2 social cost over job profiles, with the minimizer.

    Reads the lend-class vectors (see joint._joint_extremes), not all
    2^(n1*n2) profiles; the first profile with the strictly smallest cost
    wins.  Refuses as _check_joint_size does.
    """
    _check_joint_size(g1.n, n2)
    from .joint import _joint_extremes

    return _joint_extremes(g1, n2, cfg)[:2]


def enumerate_nash_level2(
    g1: Graph, n2: int, cfg: GameConfig
) -> list[tuple[Level2Profile, float]]:
    """All pure level-2 equilibria with the fog graph held fixed, in profile order.

    Each comes with its social cost and matches is_nash under Scope.LEVEL2
    exactly (see joint._joint_equilibria).  Refuses as _check_joint_size
    does, and past JOINT_ENUMERATION_GUARD equilibria.
    """
    _check_joint_size(g1.n, n2)
    from .joint import _joint_equilibria

    return _joint_equilibria(g1, n2, cfg)


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
    the two reported profiles are built.  Refuses the optimum 0 without
    fog vertices first, then as _check_joint_size does.

    Raises NoEquilibriumError when no pure equilibrium exists and
    ValueError when the optimum social cost is not positive, which can
    happen under TYPE_I where costs may reach zero or below, or infinite,
    which a float sum of huge job costs can reach (the ratio would be NaN).
    """
    if g1.n == 0 and n2 >= 0:  # every job's only strategy, the empty set, costs 0.0
        _check_poa_optimum(0.0 if n2 else 0)
    _check_joint_size(g1.n, n2)
    from .joint import _joint_extremes

    optimum_cost, optimum, worst_cost, worst, ne_count = _joint_extremes(g1, n2, cfg)
    if worst is None:
        raise NoEquilibriumError(f"no pure level-2 equilibrium (n1={g1.n}, n2={n2})")
    _check_poa_optimum(optimum_cost)
    return PoAReport(
        optimum_cost=optimum_cost,
        optimum_profile=optimum,
        worst_ne_cost=worst_cost,
        worst_ne_profile=worst,
        poa=worst_cost / optimum_cost,
        ne_count=ne_count,
    )
