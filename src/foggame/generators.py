"""Seeded instance generators: named graph families and Erdos-Renyi draws.

Only a generator graph section (and the verify battery) reads this module,
so a CLI run on an inline graph does not load it.
"""

from __future__ import annotations

import itertools
import random

from .errors import GenerationError, GuardExceeded
from .graph import GENERATOR_KINDS, Graph, is_connected

# Generation limits, read at call time: setting one on this module (for
# instance with setattr) moves it for every later call.
GENERATION_RETRY_BUDGET = 1000  # draws of a connected erdos_renyi graph
GENERATION_PAIR_GUARD = 2**20  # vertex pairs one generator call visits, all draws


def check_generator(kind: str, n: int, p: float | None = None, seed: int | None = None) -> None:
    """Raise the ValueError generate would raise for these arguments.

    Builds nothing, so a caller can refuse an instance by its size before
    paying for its edges.
    """
    if n < 1:
        raise ValueError(f"generator needs n >= 1, got {n}")
    if kind not in GENERATOR_KINDS:
        raise ValueError(f"unknown generator kind {kind!r}, expected one of {GENERATOR_KINDS}")
    if kind == "erdos_renyi":
        if p is None or not 0.0 <= p <= 1.0:
            raise ValueError(f"erdos_renyi needs edge probability p in [0,1], got {p}")
        if seed is None:
            raise ValueError("erdos_renyi needs an explicit seed")


def generate(
    kind: str,
    n: int,
    p: float | None = None,
    seed: int | None = None,
    require_connected: bool = False,
) -> Graph:
    """Build a named instance; deterministic for fixed arguments.

    Kinds: path, cycle, star (center 0), complete, erdos_renyi.  The
    Erdos-Renyi kind needs p and seed; with require_connected it redraws
    up to GENERATION_RETRY_BUDGET times, and no more than
    GENERATION_PAIR_GUARD vertex pairs over all its draws, then raises
    GenerationError; the other kinds are connected at every n >= 1, so
    only erdos_renyi reads require_connected.  Refuses a draw that would visit more than
    GENERATION_PAIR_GUARD vertex pairs (n - 1 for path and star, n for
    cycle, C(n, 2) otherwise) before building any edge.
    """
    check_generator(kind, n, p, seed)
    pairs = {"path": n - 1, "star": n - 1, "cycle": n}.get(kind, n * (n - 1) // 2)
    if pairs > GENERATION_PAIR_GUARD:
        raise GuardExceeded("graph generation", GENERATION_PAIR_GUARD, pairs)
    if kind == "path":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif kind == "cycle":
        edges = [(i, i + 1) for i in range(n - 1)]
        if n > 2:
            edges.append((0, n - 1))
    elif kind == "star":
        edges = [(0, i) for i in range(1, n)]
    elif kind == "complete":
        edges = list(itertools.combinations(range(n), 2))
    else:  # erdos_renyi
        rng = random.Random(seed)
        budget = min(GENERATION_RETRY_BUDGET, GENERATION_PAIR_GUARD // max(pairs, 1))
        for _ in range(budget):
            drawn = [(i, j) for i, j in itertools.combinations(range(n), 2) if rng.random() < p]
            g = Graph(n, frozenset(drawn))
            if not require_connected or is_connected(g):
                return g
        raise GenerationError(
            f"no connected graph in {budget} draws (n={n}, p={p}, seed={seed})"
        )
    return Graph(n, frozenset(edges))
