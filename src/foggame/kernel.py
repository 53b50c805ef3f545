"""Distance-layer kernel: every strategy of one deviating player, priced at once.

A best response, an equilibrium check or a dynamics step asks for the
distance layers of one player: a fog player's from fog_deviation_rows, a
job's from job_rows.  Each set comes from one bit-parallel BFS per fog
vertex over closed-neighbourhood bitmasks, with no graph built, and
prices a strategy with one integer OR and one bit count, to the cost the
references model.job_player_cost and model.edge_fog_player_cost give.

A job's lend key (n1-bit blocks of the far fog pairs the other jobs lend it)
is the kernel's too: format (lent_pairs), rule (lend_keys), layers (job_rows).

The engines that read it, foggame.oracles (best responses, is_nash,
dynamics) and foggame.joint (the joint level-2 analyses), import it, so
it loads with the first of them a run asks for, not at `import
foggame.cli`.
"""

from __future__ import annotations

import math
from functools import lru_cache, reduce
from typing import Callable, Iterable, Iterator, Sequence

from .graph import INF, Distance, Graph, VertexSet, closed_neighborhood_masks
from .model import GameConfig, GameState, TransitPolicy, _check_player, _job_costs


class DeviationRows:
    """Every strategy of one deviating player, priced from shared distance layers.

    A shortest path out of the player never comes back through it, so its
    distance to a target t under strategy S is 1 + the least hop distance to
    t from S or inbound in the graph without the player's links.  adjacency
    holds that graph as closed neighbourhood bitmasks; vertex t < width =
    |universe| is target t, standing for universe[t], a vertex the player
    may link to, and later vertices only carry paths.  partners, if given,
    has per vertex the bitmask of those two hops away through a job (see
    job_rows); inbound, the vertices whose links to it other players bought.

    A bit-parallel BFS from each target keeps its distances to the targets
    as one int of layers: layer r, at bit offset r * width, is reach_r &
    targets, where reach_r (the vertices within r hops) grows by the
    neighbourhoods of the vertices first reached at r - 1 and the partners
    of those first reached at r - 2 until it stops growing, even across
    radii that reach no target.  Layers run below depth, 1 plus the largest
    finite distance between targets (at least 1).  A strategy's mask is the
    OR of its members' and inbound's masks, in which target t lacks one bit
    per hop of its least distance; when the top layer is full (every target
    reached) the distance sum is thus width * (depth + 1) minus the mask's
    set bits, INF otherwise.  That is an integer hop count or INF, so every
    cost equals job_player_cost or edge_fog_player_cost for the same
    strategy exactly.  cost(k, sums) prices k links with each distance sum.
    """

    __slots__ = ("universe", "masks", "base", "full", "reached", "cost")

    def __init__(
        self,
        universe: Iterable[int],
        adjacency: list[int],
        cost: Callable[[int, list[Distance]], list[float]],
        inbound: Iterable[int] = (),
        partners: Sequence[int] = (),
    ):
        self.universe = tuple(universe)
        width = len(self.universe)
        targets = (1 << width) - 1
        # A target first reached at hop r sets its bit in layers r..depth-1,
        # bit * (ones(depth) - ones(r)) with ones(d) = sum of 1 << r * width
        # over r < d.  depth is known only after every BFS, so each keeps
        # the targets it reached and the sum of bit * ones(r) as below.
        spans = []
        depth = 1
        partners = partners or [0] * len(adjacency)
        for t in range(width):
            reach = frontier = 1 << t
            ones = below = r = pending = 0
            while frontier or pending:
                grown, later = pending, 0
                while frontier:
                    v = frontier.bit_length() - 1
                    grown |= adjacency[v]
                    later |= partners[v]
                    frontier ^= 1 << v
                frontier, pending = grown & ~reach, later
                reach |= frontier
                r += 1
                ones = ones << width | 1
                if frontier & targets:
                    below += (frontier & targets) * ones
                    depth = max(depth, r + 1)
            spans.append((reach & targets, below))
        ones = sum(1 << r * width for r in range(depth))
        self.masks = {v: reach * ones - below for v, (reach, below) in zip(self.universe, spans)}
        self.base = reduce(int.__or__, (self.masks[v] for v in inbound), 0)
        self.full = width * (depth + 1)
        # a mask is at least this iff its top layer is full
        self.reached = targets << (depth - 1) * width
        self.cost = cost

    def _sums(self, masks: list[int]) -> list[Distance]:
        full, reached = self.full, self.reached
        return [full - mask.bit_count() if mask >= reached else INF for mask in masks]

    def evaluate(self, strategy: VertexSet) -> float:
        mask = reduce(int.__or__, (self.masks[s] for s in strategy), self.base)
        return self.cost(len(strategy), self._sums([mask]))[0]

    def floors(self) -> list[float]:
        """For each size from 0, a cost no strategy of that size goes below.

        Only members and inbound (base's hit0 layer-0 bits) are 1 hop away,
        the rest at least 2, so a size-k distance sum is at least
        2 * width - min(width, hit0 + k); cost rounds monotonically in it.
        """
        width = len(self.universe)
        hit0 = (self.base & (1 << width) - 1).bit_count()
        return [self.cost(k, [2 * width - min(width, hit0 + k)])[0] for k in range(width + 1)]

    def scan(self) -> Iterator[list[float]]:
        """Costs of all subsets of universe: one list per size, from size 0.

        Each list follows itertools.combinations(universe, k) order and is
        built only when the caller asks for it.  A subset's mask is that
        of the subset without its smallest member, ORed with that member's
        row.  In this order the (k - 1)-subsets whose members all come after
        universe[p] are the last C(m - p - 1, k - 1) of their list
        (m = |universe|), so size k is, for each p in turn, row p ORed onto
        that tail of size k - 1: every size is built from the one before
        it, 2^m ORs for the whole scan.
        """
        m = len(self.universe)
        rows = [self.masks[v] for v in self.universe]
        masks = [self.base]
        for k in range(m + 1):
            if k:
                n = len(masks)
                masks = [
                    row | mask
                    for p, row in enumerate(rows)
                    for mask in masks[n - math.comb(m - p - 1, k - 1) :]
                ]
            yield self.cost(k, self._sums(masks))


@lru_cache(maxsize=16)
def _far_masks(g1: Graph) -> tuple[int, ...]:
    """Per fog vertex a, the bitmask of the vertices outside N[N[a]] in g1."""
    adjacency = closed_neighborhood_masks(g1)
    two = list(adjacency)
    for u, v in g1.edges:
        two[u] |= adjacency[v]
        two[v] |= adjacency[u]
    return tuple((1 << g1.n) - 1 & ~near for near in two)


def lent_pairs(g1: Graph, strategy: VertexSet, cfg: GameConfig) -> int:
    """The far fog pairs one job strategy lends the other jobs, packed in one int.

    A job's two-hop path between members a, b shortens a fog distance only
    when b lies 3 or more hops from a in g1 (INF counts), and only under
    FULL_COMBINED.  Bit b of block a, the n1 bits from bit a * n1, marks a, b.
    """
    if cfg.transit_policy is not TransitPolicy.FULL_COMBINED:
        return 0
    far, n1 = _far_masks(g1), g1.n
    members = sum(1 << v for v in strategy)
    return sum((far[a] & members) << a * n1 for a in strategy)


def lend_keys(lends: Iterable[int]) -> Callable[[int], int]:
    """The key rule of one job profile, read off its jobs' lends: a job's own lend -> its key.

    A job's key, the OR of the other jobs' lends, is every pair lent once
    except those only it lends.  lends may be a generator: no lend is kept.
    """
    once = twice = 0
    for lent in lends:
        twice |= once & lent
        once |= lent
    return lambda lent: once & ~(lent & ~twice)


def job_rows(g1: Graph, key: int, cfg: GameConfig) -> DeviationRows:
    """Distance layers of a job on g1 whose lend key is key, read block by block."""
    partners = [key >> a * g1.n & (1 << g1.n) - 1 for a in range(g1.n)]

    def cost(k: int, sums: list[Distance]) -> list[float]:
        return _job_costs(cfg.beta * k, sums, cfg)

    return DeviationRows(range(g1.n), closed_neighborhood_masks(g1), cost, partners=partners)


def fog_deviation_rows(i: int, state: GameState, cfg: GameConfig) -> DeviationRows:
    """Distance layers of fog player i in profile mode, whose targets are all fog vertices but i.

    The layers come from the union graph without the links at i, with i
    left out and the vertices after it moved down by one; inbound are the
    players that bought a link to i.
    """
    if not state.profile_mode:
        raise ValueError("level-1 strategies cannot change in fixed-graph mode")
    n1 = state.n1
    _check_player("fog player", i, n1)
    low = (1 << i) - 1
    adjacency = [
        mask & low | mask >> 1 & ~low
        for v, mask in enumerate(closed_neighborhood_masks(state.g1))
        if v != i
    ]
    universe = (v for v in range(n1) if v != i)
    inbound = (k for k, bought in enumerate(state.level1.strategies) if i in bought)

    def cost(k: int, sums: list[Distance]) -> list[float]:
        purchase = cfg.alpha * k
        return [d + purchase for d in sums]

    return DeviationRows(universe, adjacency, cost, inbound)
