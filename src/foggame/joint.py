"""Lend-class engine of the joint level-2 analyses.

social_optimum_level2, enumerate_nash_level2 and empirical_poa (in
foggame.equilibrium) load this module, and foggame.kernel with it, on
their first call after the joint guard, so a run that never asks for them
never compiles it; a poa run compiles neither foggame.oracles nor greedy.

Another job can shorten a job's distances only by a two-hop fog -> job ->
fog path between two of its members at least 3 hops apart in the fog
graph, a far pair it lends.  The analyses walk lend classes, candidates
lending the same far pairs, instead of the 2^(n1*n2) job profiles.  One
cost table per lend key (one in all under FOG_ONLY transit, with a single
job, or on a fog graph of diameter <= 2), one scan of the key's layers,
prices every class, and each vector of classes, one per job, is read in
O(n2) from those tables (see _class_walk, which checks the guard as each
class appears).  The lend key is foggame.kernel's (lent_pairs, lend_keys,
job_rows), as in foggame.oracles.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator

from . import kernel
from .equilibrium import _check_joint_size
from .graph import Graph
from .model import GameConfig, Level2Profile


def _joint_candidates(n1: int, n2: int) -> list[tuple[int, ...]]:
    """Per-job strategies as tuples in scan order (kernel.DeviationRows.scan); () without jobs."""
    if not n2:
        return [()]
    return [c for k in range(n1 + 1) for c in itertools.combinations(range(n1), k)]


def _profile(n1: int, strategy_of, indices: tuple[int, ...]) -> Level2Profile:
    return Level2Profile(n1, tuple(strategy_of[i] for i in indices))


def _class_walk(g1: Graph, cands: list, n2: int, cfg: GameConfig) -> Iterator[list]:
    """Every vector of lend classes once, one entry per job.

    Candidates that lend the same far pairs (none with one job) form a
    class, the same to every other job.  So with one class fixed per job,
    each job's key is fixed too, and the job picks inside its class alone.
    The joint guard is checked as each class appears in scan order, so a
    refusal names a lower bound of the walk's work.  Vectors come in
    itertools.product order over the L classes, L^n2 of them.  A job's
    entry is (least cost in its class, the class members whose cost equals
    the table minimum, that minimum, the cost table, the class members),
    all candidate indices ascending.  The first vector of a key fills its
    table by one whole scan of the key's layers and prices every class on
    it: one table per key, as many as a profile-by-profile pass would fill.
    """
    classes: dict[int, list[int]] = {}
    for i, cand in enumerate(cands):
        group = classes.setdefault(kernel.lent_pairs(g1, cand, cfg) if n2 > 1 else 0, [])
        if not group:  # a new class
            _check_joint_size(g1.n, n2, len(classes))
        group.append(i)
    lends, members = list(classes), list(classes.values())
    tables: dict[int, list[tuple]] = {}
    for vector in itertools.product(range(len(lends)), repeat=n2):
        key_of = kernel.lend_keys(lends[c] for c in vector)
        jobs = []
        for c in vector:
            key = key_of(lends[c])
            table = tables.get(key)
            if table is None:
                row = tuple(itertools.chain(*kernel.job_rows(g1, key, cfg).scan()))
                best = min(row)
                table = tables[key] = [
                    (min(row[i] for i in ms), tuple(i for i in ms if row[i] == best), best, row, ms)
                    for ms in members
                ]
            jobs.append(table[c])
        yield jobs


def _first_least(jobs: list, least: float) -> tuple[int, ...]:
    """First profile of a class vector, in product order, whose social cost is least.

    The social cost is a float sum in job order, and rounding is monotone,
    so the least sum a job's member allows is the sum with the later jobs'
    class minima, and a member of least cost always allows least.
    """
    lows = [job[0] for job in jobs]
    costs: list[float] = []
    picks = []
    for p, (low, _, _, row, ms) in enumerate(jobs):
        m = next(m for m in ms if row[m] == low or sum(costs + [row[m]] + lows[p + 1 :]) == least)
        costs.append(row[m])
        picks.append(m)
    return tuple(picks)


def _joint_extremes(g1: Graph, n2: int, cfg: GameConfig) -> tuple:
    """The optimum, the worst equilibrium and the equilibrium count, from one walk.

    Returns (candidates, least social cost, its first profile, greatest
    equilibrium cost, its first profile, equilibrium count), the two
    equilibrium entries None when there is none.  A class vector's least
    cost is the job-order sum of its class minima (see _class_walk), and
    its equilibria, the products of its jobs' equilibrium members, all
    cost the sum of the table minima.  Ties between vectors go to the
    first profile in product order, as a profile-by-profile scan keeping
    strict improvements reports it; only the current extremes are kept.
    The caller checks the counts first (equilibrium._check_joint_size).
    """
    cands = _joint_candidates(g1.n, n2)
    least = worst = optimum = first = None
    count = 0
    for jobs in _class_walk(g1, cands, n2, cfg):
        cost = sum([job[0] for job in jobs])
        if least is None or cost <= least:
            picks = _first_least(jobs, cost)
            if least is None or cost < least or picks < optimum:
                least, optimum = cost, picks
        stable = math.prod(len(job[1]) for job in jobs)
        if stable:
            count += stable
            cost = sum([job[2] for job in jobs])
            picks = tuple(job[1][0] for job in jobs)
            if worst is None or cost > worst or cost == worst and picks < first:
                worst, first = cost, picks
    return cands, least, optimum, worst, first, count
