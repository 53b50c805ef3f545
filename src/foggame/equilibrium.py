"""Best-response oracles, improvement dynamics, and equilibrium analysis.

All enumeration is exhaustive and deterministic: candidate strategies are
scanned by increasing size and then lexicographic member order, and only a
strict improvement replaces the incumbent, so ties always resolve to the
smallest, lexicographically first set.

Every best response, exact or greedy, prices its candidates on one set of
distance layers (see model.DeviationRows): one bit-parallel BFS per fog
vertex per oracle call, with no graph built, then one integer OR and one
bit count per candidate, its mask extended from that of the candidate
minus its smallest member.  An exact best response scans sizes in
increasing order and stops once no larger size's cost floor lies below its
incumbent, at most 2^n1 ORs, and its costs equal job_player_cost and
edge_fog_player_cost exactly.

The joint level-2 analyses (social optimum, equilibrium enumeration, price
of anarchy) share one pass over all 2^(n1*n2) job profiles.  Another job
can shorten a job's distances only by the two-hop fog -> job -> fog paths
between its members that are at least 3 hops apart in the fog graph, so
the pass evaluates job costs once per set of such far pairs lent by the
other jobs (one set in all under FOG_ONLY transit, with a single job, or
on a fog graph of diameter <= 2), and reads every profile's social cost
and equilibrium status from those cost tables, so a profile never
re-solves a best response (see _level2_scan).
"""

from __future__ import annotations

import itertools
import math
import random
from enum import Enum
from typing import Callable, Iterator, NamedTuple, Sequence

from .errors import GuardExceeded, NoEquilibriumError, PolicyError
from .graph import (
    Graph,
    VertexSet,
    all_pairs_distances,
    is_connected,
    is_dominating_set,
    min_dominating_set,
)
from .model import (
    DeviationRows,
    GameConfig,
    GameState,
    Level2Profile,
    TransitPolicy,
    fog_deviation_rows,
    job_deviation_rows,
)

# Enumeration limits, read at call time: setting one on this module (for
# instance with setattr) moves it for every later call.
EXACT_ENUMERATION_GUARD = 20  # fog vertices of an exact best response
JOINT_ENUMERATION_GUARD = 15  # n1 * n2 of a level-2 scan, 2^(n1*n2) profiles
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
    return _deviation(Scope.LEVEL2, j, state, cfg, "exact")[2:]


def best_response_fog_exact(i: int, state: GameState, cfg: GameConfig) -> tuple[VertexSet, float]:
    """Cost-minimal purchase set for fog player i; profile mode only.

    Scans the purchase sets by size over the player's distance layers
    (n1 - 1 bitmask BFS, then one mask OR per set) and stops once no
    larger size can strictly beat the best so far: at most 2^(n1-1) ORs.
    Refuses when n1 exceeds EXACT_ENUMERATION_GUARD.
    """
    return _deviation(Scope.LEVEL1, i, state, cfg, "exact")[2:]


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
    exists, pricing candidates on the job's distance rows.  May stop at a
    local optimum above the exact best response.
    """
    return _deviation(Scope.LEVEL2, j, state, cfg, "greedy")[2:]


def _scoped_players(state: GameState, scope: Scope) -> list[tuple[Scope, int]]:
    players: list[tuple[Scope, int]] = []
    if scope in (Scope.LEVEL1, Scope.BOTH):
        if not state.profile_mode:
            raise PolicyError("level-1 scope needs profile mode, not a fixed graph")
        players.extend((Scope.LEVEL1, i) for i in range(state.n1))
    if scope in (Scope.LEVEL2, Scope.BOTH):
        players.extend((Scope.LEVEL2, j) for j in range(state.n2))
    return players


def _deviation(
    level: Scope, player: int, state: GameState, cfg: GameConfig, oracle: str
) -> tuple[VertexSet, float, VertexSet, float]:
    """Current strategy and cost of a player and the oracle's answer.

    Both costs come from one set of distance rows.  oracle is "exact"
    (guarded) or "greedy".  Every best response, equilibrium check and
    dynamics step asks here.  A fog player needs profile mode
    (PolicyError), checked before the guard, which comes before the
    player index (ValueError).
    """
    if level is Scope.LEVEL1 and not state.profile_mode:
        raise PolicyError("fog best response needs profile mode, not a fixed graph")
    if oracle == "exact":
        _check_exact_size(state.n1)
    if level is Scope.LEVEL1:
        rows = fog_deviation_rows(player, state, cfg)
        current = state.level1.strategies[player]
    else:
        rows = job_deviation_rows(player, state, cfg)
        current = state.level2.strategies[player]
    if oracle == "exact":
        cand, cand_cost = _exact_best(rows)
    else:
        cand, cand_cost = _local_search(current, rows.universe, rows.evaluate)
    return current, rows.evaluate(current), cand, cand_cost


def is_nash(
    state: GameState, cfg: GameConfig, scope: Scope
) -> tuple[bool, DeviationWitness | None]:
    """Exact equilibrium check over the scoped players.

    Returns the first strictly profitable deviation in ascending player
    order (level-1 players before level-2 players under Scope.BOTH).
    """
    for level, player in _scoped_players(state, scope):
        _, current, better_set, better_cost = _deviation(level, player, state, cfg, "exact")
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
    for round_index in range(max_rounds):
        if schedule == "round_robin":
            order = players
        else:
            order = rng.sample(players, len(players))
        moved = False
        for level, player in order:
            old, current, cand, cand_cost = _deviation(level, player, state, cfg, oracle)
            if cand_cost < current:
                if level is Scope.LEVEL1:
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


def _check_joint_size(n1: int, n2: int) -> None:
    """Refuse a level-2 scan whose n1 * n2 exceeds JOINT_ENUMERATION_GUARD.

    The scan visits 2^(n1*n2) profiles and fills at most
    C(2^n1 + n2 - 2, n2 - 1) tables of 2^n1 job costs, which is no more
    than 2^(n1*n2) job costs, so n1 * n2 bounds both.
    """
    if n2 < 0:
        raise ValueError(f"n2 must be non-negative, got {n2}")
    guard = JOINT_ENUMERATION_GUARD
    if n1 * n2 > guard:
        raise GuardExceeded("joint profile enumeration", guard, n1 * n2)


def _joint_candidates(n1: int, n2: int) -> list[VertexSet]:
    """Per-job strategies in scan order (see DeviationRows.scan); none without jobs."""
    if not n2:
        return []
    return [frozenset(c) for k in range(n1 + 1) for c in itertools.combinations(range(n1), k)]


def _profile(n1: int, cands: list[VertexSet], indices: tuple[int, ...]) -> Level2Profile:
    return Level2Profile(n1, tuple(cands[i] for i in indices))


def _job_cost_table(g1: Graph, rest: tuple[VertexSet, ...], cfg: GameConfig) -> tuple[float, ...]:
    """A job's cost for each candidate, in scan order, against rest."""
    state = GameState(g1, Level2Profile(g1.n, (frozenset(),) + rest), allow_unequal=True)
    return tuple(itertools.chain.from_iterable(job_deviation_rows(0, state, cfg).scan()))


def _lent_shortcuts(g1: Graph, cands: list[VertexSet], n2: int, cfg: GameConfig) -> list[int]:
    """Far fog pairs each candidate lends the other jobs, one int per candidate.

    Under FULL_COMBINED a job k with strategy S_k joins any two members a, b
    of S_k by a two-hop path a -> k -> b, which shortens a fog distance only
    when a and b are at least 3 hops apart in g1 (INF counts as far).  Bit
    a * n1 + b stands for such a pair a < b.  A candidate lends nothing
    under FOG_ONLY, where no path crosses a job, nor when n2 <= 1, where no
    other job can read it.
    """
    if n2 <= 1 or cfg.transit_policy is TransitPolicy.FOG_ONLY:
        return [0] * len(cands)
    dist = all_pairs_distances(g1)
    return [
        sum(1 << a * g1.n + b for a, b in itertools.combinations(sorted(c), 2) if dist[a][b] >= 3)
        for c in cands
    ]


def _level2_scan(
    g1: Graph, cands: list[VertexSet], n2: int, cfg: GameConfig
) -> Iterator[tuple[tuple[int, ...], float, bool]]:
    """Every level-2 profile once, as (candidate indices, social cost, is NE).

    Profiles come in itertools.product order over indices into cands.  A
    job's cost depends only on its own strategy and on the far pairs the
    other jobs lend (see _lent_shortcuts), so the OR of their bits keys
    its cost table; FOG_ONLY scans, single-job scans and fog graphs of
    diameter <= 2 have the one key 0.  Two ORs over a profile give the
    bits lent `once` and `twice` or more, and a job's key is `once`
    without the bits only its own candidate lends: O(n2) per profile.  A
    table holds the job's cost for each own candidate plus its minimum,
    the exact best-response cost; a profile is an equilibrium iff no job's
    cost exceeds its table minimum.  The first profile of a key fills its
    table against its other jobs by one whole distance-layer scan (n1
    bitmask BFS + 2^n1 mask ORs, see model.DeviationRows), at most one
    table per multiset of the other n2 - 1 jobs' strategies,
    C(2^n1 + n2 - 2, n2 - 1) in all.
    Tables live for one scan.
    """
    lends = _lent_shortcuts(g1, cands, n2, cfg)
    tables: dict[int, tuple[tuple[float, ...], float]] = {}
    for indices in itertools.product(range(len(cands)), repeat=n2):
        once = twice = 0
        for own in indices:
            lent = lends[own]
            twice |= once & lent
            once |= lent
        costs = []
        stable = True
        for p, own in enumerate(indices):
            key = once & ~(lends[own] & ~twice)
            table = tables.get(key)
            if table is None:
                rest = tuple(cands[i] for i in indices[:p] + indices[p + 1 :])
                row = _job_cost_table(g1, rest, cfg)
                table = tables[key] = (row, min(row))
            row, best = table
            costs.append(row[own])
            if best < row[own]:
                stable = False
        yield indices, sum(costs), stable


def social_optimum_level2(g1: Graph, n2: int, cfg: GameConfig) -> tuple[float, Level2Profile]:
    """Minimum level-2 social cost over job profiles, with the minimizer.

    Reads all 2^(n1*n2) profiles from the one-pass cost-table scan (see
    _level2_scan), 2^n1 job-cost evaluations per set of far pairs the
    other jobs lend (2^n1 in all under FOG_ONLY), at most
    C(2^n1 + n2 - 2, n2 - 1) * 2^n1; the first profile with the strictly
    smallest cost wins.  Refuses when n1 * n2 exceeds
    JOINT_ENUMERATION_GUARD.
    """
    _check_joint_size(g1.n, n2)
    cands = _joint_candidates(g1.n, n2)
    best_cost = 0.0
    best: tuple[int, ...] | None = None
    for indices, cost, _ in _level2_scan(g1, cands, n2, cfg):
        if best is None or cost < best_cost:
            best_cost, best = cost, indices
    assert best is not None
    return best_cost, _profile(g1.n, cands, best)


def enumerate_nash_level2(
    g1: Graph, n2: int, cfg: GameConfig
) -> list[tuple[Level2Profile, float]]:
    """All pure level-2 equilibria with the fog graph held fixed.

    Equilibria come from the one-pass cost-table scan (see _level2_scan),
    in its profile order, each with its social cost.  A profile is kept
    when every job's cost equals the minimum of its cost table, which
    matches is_nash under Scope.LEVEL2 exactly, at 2^n1 job-cost
    evaluations per set of far pairs the other jobs lend, no more than
    C(2^n1 + n2 - 2, n2 - 1) * 2^n1 for the whole enumeration.  Refuses
    when n1 * n2 exceeds JOINT_ENUMERATION_GUARD.
    """
    _check_joint_size(g1.n, n2)
    cands = _joint_candidates(g1.n, n2)
    return [
        (_profile(g1.n, cands, indices), cost)
        for indices, cost, stable in _level2_scan(g1, cands, n2, cfg)
        if stable
    ]


class PoAReport(NamedTuple):
    """Worst equilibrium cost relative to the social optimum."""

    optimum_cost: float
    optimum_profile: Level2Profile
    worst_ne_cost: float
    worst_ne_profile: Level2Profile
    poa: float
    ne_count: int


def empirical_poa(g1: Graph, n2: int, cfg: GameConfig) -> PoAReport:
    """Price of anarchy by full enumeration of level-2 profiles.

    One pass of the cost-table scan (see _level2_scan) gives the optimum
    (first strict minimum), the worst equilibrium (first strict maximum
    among equilibria) and the equilibrium count, with the same results as
    social_optimum_level2 and enumerate_nash_level2, for the job-cost
    evaluations of a single scan.
    Only the two reported profiles are built.  Refuses when n1 * n2
    exceeds JOINT_ENUMERATION_GUARD.

    Raises NoEquilibriumError when no pure equilibrium exists and
    ValueError when the optimum social cost is not positive, which can
    happen under TYPE_I where costs may reach zero or below, or infinite,
    which a float sum of huge job costs can reach (the ratio would be NaN).
    """
    _check_joint_size(g1.n, n2)
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
    if optimum_cost == math.inf:
        raise ValueError("price of anarchy undefined for infinite optimum cost")
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
