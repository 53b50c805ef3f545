"""Lend-class engine of the joint level-2 analyses.

social_optimum_level2, enumerate_nash_level2 and empirical_poa (in
foggame.equilibrium) check their counts, then load this module, and
foggame.kernel with it, and take finished profiles from _joint_extremes
or _joint_equilibria; a run that never asks for them never compiles it,
and a poa run compiles neither foggame.oracles nor greedy.

Another job can shorten a job's distances only by a two-hop fog -> job ->
fog path between two of its members at least 3 hops apart in the fog
graph, a far pair it lends.  The analyses walk lend classes, candidates
lending the same far pairs, instead of the 2^(n1*n2) job profiles.  One
cost table per lend key (one in all under FOG_ONLY transit, with a single
job, or on a fog graph of diameter <= 2), one scan of the key's layers,
prices every class, and each vector of classes, one per job, is read in
O(n2) from those tables (see _class_walk).  The lend key is
foggame.kernel's (lent_pairs, lend_keys, job_rows), as in foggame.oracles.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator

from . import equilibrium, kernel
from .errors import GuardExceeded
from .graph import Graph
from .model import GameConfig, Level2Profile


def _class_walk(g1: Graph, n2: int, cfg: GameConfig) -> Iterator[list]:
    """The candidates, then every vector of lend classes once, one entry per job.

    The candidates, each job's strategies as tuples in scan order
    (kernel.DeviationRows.scan), or () alone without jobs, come first as
    one list, made as they are grouped.  Candidates that lend the same far
    pairs (none with one job) form a class, the same to every other job,
    so with one class fixed per job each job's key is fixed too, and the
    job picks inside its class alone.  The joint guard is checked as each
    class appears: a refusal names a lower bound of the walk's work, and
    has made only the candidates up to that class.  Vectors come in
    itertools.product order over the L classes, L^n2 of them.  A job's
    entry is (least cost in its class, the class members whose cost equals
    the table minimum, that minimum, the cost table, the class members),
    all candidate indices ascending.  The first vector of a key fills its
    table by one whole scan of the key's layers and prices every class on
    it: one table per key, as many as a profile-by-profile pass would fill.
    """
    n1, cands, classes = g1.n, [], {}
    for k in range(n1 + 1 if n2 else 1):  # only the empty tuple without jobs
        for cand in itertools.combinations(range(n1), k):
            group = classes.setdefault(kernel.lent_pairs(g1, cand, cfg) if n2 > 1 else 0, [])
            if not group:  # a new class
                equilibrium._check_joint_size(n1, n2, len(classes))
            group.append(len(cands))
            cands.append(cand)
    yield cands
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

    Returns (least social cost, its first profile, greatest equilibrium
    cost, its first profile, equilibrium count), both equilibrium entries
    None without one.  A class vector's least cost is the job-order sum of
    its class minima (see _class_walk), and its equilibria, the products
    of its jobs' equilibrium members, all cost the sum of the table
    minima.  Ties go to the first profile in product order, as a
    profile-by-profile scan keeping strict improvements reports it.  The
    caller checks the counts first (equilibrium._check_joint_size).
    """
    walk = _class_walk(g1, n2, cfg)
    cands = next(walk)
    least = worst = optimum = first = None
    count = 0
    for jobs in walk:
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
    worst_profile = None if first is None else Level2Profile(g1.n, (cands[i] for i in first))
    return least, Level2Profile(g1.n, (cands[i] for i in optimum)), worst, worst_profile, count


def _joint_equilibria(g1: Graph, n2: int, cfg: GameConfig) -> list[tuple[Level2Profile, float]]:
    """Every equilibrium with its social cost, in profile order, from one walk.

    Each class vector gives the products of its jobs' equilibrium members,
    at their table minima.  Refused past equilibrium.JOINT_ENUMERATION_GUARD
    listed profiles.  Each listed candidate is one frozenset, shared by the
    profiles holding it.
    """
    walk = _class_walk(g1, n2, cfg)
    cands = next(walk)
    found, sets = [], {}
    for jobs in walk:
        listed = len(found) + math.prod(len(job[1]) for job in jobs)
        guard = equilibrium.JOINT_ENUMERATION_GUARD
        if listed > guard:
            raise GuardExceeded("joint equilibrium listing", guard, listed)
        cost = sum([job[2] for job in jobs])
        found.extend((picks, cost) for picks in itertools.product(*(job[1] for job in jobs)))
        sets.update((i, frozenset(cands[i])) for job in jobs for i in job[1] if i not in sets)
    found.sort()
    return [(Level2Profile(g1.n, (sets[i] for i in picks)), cost) for picks, cost in found]
