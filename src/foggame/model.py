"""Two-level game state and cost functions.

Level 1: each fog device is a vertex that buys links to other fog devices
(price alpha each) and pays the sum of its hop distances to every fog
vertex.  Level 2: each job is an extra vertex that buys links into the fog
graph (price beta each) and pays a distance term over all fog vertices.

The per-player costs here are the references for the faster path built
on them, the distance-layer kernel (foggame.kernel).  They and the cost
mode's report (costs.cost_report) read one list-BFS pricing of a state,
_player_costs, which COST_PAIR_GUARD bounds: fog players by BFS over the
fog graph, jobs by BFS over its adjacency list extended by the job
vertices; no combined graph is built.
"""

from __future__ import annotations

import math
from enum import Enum
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from .errors import GuardExceeded
from .graph import INF, Distance, Graph, VertexSet, _Validated, single_source_distances

COST_PAIR_GUARD = 2**24  # (BFS source, vertex or edge) pairs of pricing one state


class JobCostType(Enum):
    """How a job is charged for its distance to the fog vertices.

    TYPE_I:  beta * |S| - 1 / (sum of distances); the distance term is a
             bounded utility, so connectivity is worth at most 1.
    TYPE_II: beta * |S| + sum of distances.
    """

    TYPE_I = "type1"
    TYPE_II = "type2"


class TransitPolicy(Enum):
    """Whether job-to-fog paths may pass through other job vertices.

    FULL_COMBINED routes in the full two-level graph.  FOG_ONLY restricts a
    job to one hop over its own links followed by fog-internal paths, which
    makes job costs independent of each other.
    """

    FOG_ONLY = "fog_only"
    FULL_COMBINED = "full_combined"


class _GameConfigFields(NamedTuple):
    alpha: float = 1.0
    beta: float = 1.0
    job_cost_type: JobCostType = JobCostType.TYPE_II
    rcs_constant: float = 1.0
    transit_policy: TransitPolicy = TransitPolicy.FULL_COMBINED


class GameConfig(_Validated, _GameConfigFields):
    """Cost parameters for both levels.

    A job whose distance sum is infinite has infinite cost under both cost
    types; the TYPE_I utility term is not read as -1/inf.  rcs_constant is
    the multiplier used by the sum-of-reciprocals bound helpers.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name in ("alpha", "beta", "rcs_constant"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {self.alpha}")
        if self.beta < 0:
            raise ValueError(f"beta must be non-negative, got {self.beta}")
        if self.rcs_constant <= 0:
            raise ValueError(f"rcs_constant must be positive, got {self.rcs_constant}")
        return self


def _checked(owner: str, player: int, strategy: Iterable[int], n1: int, own: bool) -> VertexSet:
    """strategy as a frozenset, refused if it holds a vertex outside [0, n1), or player if own."""
    s = frozenset(strategy)
    if own and player in s:
        raise ValueError(f"{owner} {player} cannot buy a link to itself")
    for v in s:
        if not 0 <= v < n1:
            raise ValueError(f"{owner} {player} strategy member {v} outside [0,{n1})")
    return s


class _Profile(_Validated):
    """A strategy profile: its __new__ checks every strategy, replace only the new one."""

    __slots__ = ()

    def replace(self, player: int, strategy: Iterable[int]):
        parts = list(self.strategies)
        parts[player] = strategy
        player %= len(parts)  # as the constructor's messages number a negative index
        parts[player] = _checked(self._OWNER, player, strategy, self.n1, self._OWN)
        # the fields before strategies (a job profile's n1) are kept as they are
        return tuple.__new__(type(self), (*self[:-1], tuple(parts)))


class _Level1Fields(NamedTuple):
    strategies: tuple[VertexSet, ...]


class Level1Profile(_Profile, _Level1Fields):
    """One purchase set per fog player; player i may not buy a link to itself."""

    __slots__ = ()
    _OWNER, _OWN = "fog player", True

    def __new__(cls, strategies: Iterable[Iterable[int]]):
        strategies = tuple(map(frozenset, strategies))
        for i, s in enumerate(strategies):
            _checked(cls._OWNER, i, s, len(strategies), cls._OWN)
        return super().__new__(cls, strategies)

    @property
    def n1(self) -> int:
        return len(self.strategies)


class _Level2Fields(NamedTuple):
    n1: int
    strategies: tuple[VertexSet, ...]


class Level2Profile(_Profile, _Level2Fields):
    """One fog-vertex subset per job; n1 fixes the purchasable range."""

    __slots__ = ()
    _OWNER, _OWN = "job", False

    def __new__(cls, n1: int, strategies: Iterable[Iterable[int]]):
        strategies = tuple(map(frozenset, strategies))
        if n1 < 0:
            raise ValueError(f"n1 must be non-negative, got {n1}")
        for j, s in enumerate(strategies):
            _checked(cls._OWNER, j, s, n1, cls._OWN)
        return super().__new__(cls, n1, strategies)

    @property
    def n2(self) -> int:
        return len(self.strategies)


class _GameStateFields(NamedTuple):
    level1: Level1Profile | Graph
    level2: Level2Profile
    allow_unequal: bool = False


class GameState(_Validated, _GameStateFields):
    """Immutable snapshot of both levels.

    level1 is either a Level1Profile (profile mode, purchases are charged)
    or a fixed Graph (the fog network is given and only distances count).
    Equal player counts are required unless allow_unequal is set; the
    closed-form bound evaluators refuse unequal counts either way.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        n1 = self.n1
        if self.level2.n1 != n1:
            raise ValueError(
                f"level-2 profile addresses {self.level2.n1} fog vertices, level 1 has {n1}"
            )
        _check_player_counts(n1, self.level2.n2, self.allow_unequal)
        return self

    @property
    def profile_mode(self) -> bool:
        return isinstance(self.level1, Level1Profile)

    @property
    def n1(self) -> int:
        return self.level1.n1 if self.profile_mode else self.level1.n

    @property
    def n2(self) -> int:
        return self.level2.n2

    @property
    def g1(self) -> Graph:
        """The fog graph: fixed, or built from the level-1 profile."""
        return build_level1_graph(self.level1) if self.profile_mode else self.level1

    def with_level1_strategy(self, player: int, strategy: Iterable[int]) -> "GameState":
        if not self.profile_mode:
            raise ValueError("level-1 strategies cannot change in fixed-graph mode")
        return GameState(self.level1.replace(player, strategy), self.level2, self.allow_unequal)

    def with_level2_strategy(self, job: int, strategy: Iterable[int]) -> "GameState":
        return GameState(self.level1, self.level2.replace(job, strategy), self.allow_unequal)


def _check_player_counts(n1: int, n2: int, allow_unequal: bool) -> None:
    """GameState's count check; a scenario's parser runs it before expanding a bare n2."""
    if not allow_unequal and n1 != n2:
        raise ValueError(
            f"player counts differ (n1={n1}, n2={n2}); "
            'pass allow_unequal=True (scenario key "allow_unequal": true) to permit this'
        )


def interconnection_count(profile: Level2Profile) -> int:
    """Total number of job-to-fog links, counting one per purchase."""
    return sum(len(s) for s in profile.strategies)


def _within_cost_guard(n: int, links: int, bfs: int) -> None:
    """Refuse past COST_PAIR_GUARD bfs BFS over n vertices and links edges."""
    pairs = bfs * (n + links)
    if pairs > COST_PAIR_GUARD:
        raise GuardExceeded("cost evaluation", COST_PAIR_GUARD, pairs)


def _check_player(kind: str, p: int, n: int) -> None:
    """The index check of every per-player cost and deviation: kind p must lie in [0, n)."""
    if not 0 <= p < n:
        raise ValueError(f"{kind} {p} outside [0,{n})")


@lru_cache(maxsize=1024)
def build_level1_graph(profile: Level1Profile) -> Graph:
    """Union semantics: edge {i,k} exists iff i bought k or k bought i.

    Both sides of a duplicate purchase are still charged in the cost
    functions; the built graph keeps a single edge.
    """
    edges = ((min(i, k), max(i, k)) for i, s in enumerate(profile.strategies) for k in s)
    return Graph(profile.n1, frozenset(edges))


def build_combined_graph(g1: Graph, profile: Level2Profile) -> Graph:
    """Two-level graph: job j becomes vertex n1 + j with its bought links.

    Jobs never link to each other, so every added edge has one fog endpoint.
    """
    if profile.n1 != g1.n:
        raise ValueError(f"profile addresses {profile.n1} fog vertices, graph has {g1.n}")
    return Graph(
        g1.n + profile.n2,
        g1.edges.union((v, jv) for jv, s in enumerate(profile.strategies, g1.n) for v in s),
    )


def _player_costs(
    state: GameState, cfg: GameConfig, fog: Sequence[int], jobs: Sequence[int]
) -> list[float]:
    """The costs of the fog players in fog, then of the jobs in jobs, all on one adjacency list.

    The list starts as the fog graph's, which serves the fog BFS; then each
    job vertex n1 + j gets an out-list of its members, and under
    FULL_COMBINED each member a link back to it.  Without the back-links a
    BFS from a job never enters another job, which is what FOG_ONLY means.
    Refused past COST_PAIR_GUARD, one BFS per player priced.
    """
    g1, n1, strategies = state.g1, state.n1, state.level2.strategies
    links = g1.edge_count + interconnection_count(state.level2)
    _within_cost_guard(n1 + state.n2, links, len(fog) + len(jobs))
    adjacency = g1.adjacency()
    costs = [sum(single_source_distances(g1, i, adjacency)) for i in fog]
    if state.profile_mode:
        costs = [d + cfg.alpha * len(state.level1.strategies[i]) for i, d in zip(fog, costs)]
    adjacency += map(list, strategies)
    if cfg.transit_policy is TransitPolicy.FULL_COMBINED:
        for jv, s in enumerate(strategies, n1):
            for v in s:
                adjacency[v].append(jv)
    for j in jobs:
        d = sum(single_source_distances(g1, n1 + j, adjacency)[:n1])
        costs += _job_costs(cfg.beta * len(strategies[j]), [d], cfg)
    return costs


def edge_fog_player_cost(i: int, state: GameState, cfg: GameConfig) -> float:
    """alpha * |S_i| plus the sum of hop distances from i to every fog vertex.

    In fixed-graph mode the purchase term is zero.  Infinite whenever some
    fog vertex is unreachable inside the fog graph.
    """
    _check_player("fog player", i, state.n1)
    return _player_costs(state, cfg, (i,), ())[0]


def job_player_cost(j: int, state: GameState, cfg: GameConfig) -> float:
    """Job cost under the configured cost type and transit policy.

    TYPE_II: beta * |S| + D where D sums the job's distances to all fog
    vertices.  TYPE_I: beta * |S| - 1/D, infinite when D is infinite.  With
    no fog vertices at all the distance term is zero by convention.
    """
    _check_player("job", j, state.n2)
    return _player_costs(state, cfg, (), (j,))[0]


def _job_costs(purchase: float, sums: list[Distance], cfg: GameConfig) -> list[float]:
    """Job costs from one purchase term and each distance sum (see job_player_cost)."""
    if cfg.job_cost_type is JobCostType.TYPE_II:
        return [purchase + d for d in sums]
    return [INF if d == INF else purchase if d == 0 else purchase - 1.0 / d for d in sums]


def social_cost_level1(state: GameState, cfg: GameConfig) -> float:
    """Sum of fog player costs; purchase terms count only in profile mode."""
    return sum(_player_costs(state, cfg, range(state.n1), ()))


def social_cost_level2(state: GameState, cfg: GameConfig) -> float:
    return sum(_player_costs(state, cfg, (), range(state.n2)))
