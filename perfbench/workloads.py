"""Seeded scenario generation for the benchmark workloads.

Every workload is a fixed batch of scenario files drawn from the seed; the
program under test only ever sees the generated JSON.  The same seed gives
byte-identical scenarios.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass

WORKLOADS = ("poa-combined", "poa-fog-only", "dynamics-profile")
SIZES = ("full", "tiny")

# (n1, n2, beta) per price-of-anarchy scenario: from 2^12 joint profiles
# with 2^4 best-response candidates each to 2^8 profiles with 2^8.
POA_SHAPES = {
    "full": ((4, 3, 3.5), (6, 2, 1.5), (8, 1, 1.5)),
    "tiny": ((3, 2, 1.5), (4, 1, 1.5)),
}

# Dynamics: n1 = n2 players per level, starts per pass.  max_rounds caps a
# start at a fixed number of full best-response sweeps, so the work of a
# start does not depend on how many rounds the seed needs to converge;
# starts that do converge within the cap are still checked with is_nash.
DYNAMICS_SHAPE = {"full": (10, 4), "tiny": (4, 2)}
DYNAMICS_MAX_ROUNDS = 3
DYNAMICS_ALPHA = 2.0
DYNAMICS_BETA = 1.5
DYNAMICS_EXTRA_EDGES = 4


@dataclass(frozen=True)
class Scenario:
    """One CLI invocation: `foggame <mode> <file>` with this JSON body."""

    name: str
    mode: str
    body: dict

    def text(self) -> str:
        return json.dumps(self.body, sort_keys=True, indent=1) + "\n"


def _half_density_graph(rng: random.Random, n: int) -> list[list[int]]:
    """A connected graph with half of the possible edges, at least a tree's.

    Fixing the edge count (G(n, m) with m = max(C(n,2) // 2, n - 1)
    instead of G(n, 1/2)) keeps the per-evaluation cost of a scenario from
    moving with the seed, while the seed still chooses the structure.
    """
    pairs = list(itertools.combinations(range(n), 2))
    m = max(len(pairs) // 2, n - 1)
    while True:
        edges = sorted(rng.sample(pairs, m))
        if _connected(n, edges):
            return [list(e) for e in edges]


def _connected(n: int, edges: list[tuple[int, int]]) -> bool:
    # Not foggame.graph.is_connected: inputs must not change with the program.
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _poa_batch(seed: int, size: str, transit: str) -> list[Scenario]:
    # Both poa workloads draw from the same stream, so they run the same
    # graphs and differ only in the transit policy.
    rng = random.Random(f"poa-{seed}")
    batch = []
    for n1, n2, beta in POA_SHAPES[size]:
        body = {
            "mode": "poa",
            "graph": {"n": n1, "edges": _half_density_graph(rng, n1)},
            "n2": n2,
            "config": {"beta": beta, "job_cost_type": "type2", "transit": transit},
        }
        batch.append(Scenario(f"poa-{n1}x{n2}", "poa", body))
    return batch


def _level1_profile(rng: random.Random, n1: int) -> list[list[int]]:
    """Purchase sets whose union graph is connected.

    A random spanning tree plus a fixed number of extra links; each link
    is bought by one of its endpoints, chosen at random.
    """
    order = list(range(n1))
    rng.shuffle(order)
    edges = set()
    for k in range(1, n1):
        u, v = order[k], order[rng.randrange(k)]
        edges.add((min(u, v), max(u, v)))
    missing = [p for p in itertools.combinations(range(n1), 2) if p not in edges]
    edges.update(rng.sample(missing, min(DYNAMICS_EXTRA_EDGES, len(missing))))
    buys: list[set[int]] = [set() for _ in range(n1)]
    for u, v in sorted(edges):
        if rng.random() < 0.5:
            buys[u].add(v)
        else:
            buys[v].add(u)
    return [sorted(b) for b in buys]


def _dynamics_batch(seed: int, size: str) -> list[Scenario]:
    rng = random.Random(f"dynamics-{seed}")
    n, starts = DYNAMICS_SHAPE[size]
    batch = []
    for start in range(starts):
        jobs = [sorted(rng.sample(range(n), rng.randint(1, 3))) for _ in range(n)]
        body = {
            "mode": "dynamics",
            "config": {
                "alpha": DYNAMICS_ALPHA,
                "beta": DYNAMICS_BETA,
                "job_cost_type": "type2",
                "transit": "full_combined",
            },
            "options": {
                "level1_strategies": _level1_profile(rng, n),
                "level2_strategies": jobs,
                "scope": "both",
                "schedule": "random_permutation",
                "seed": rng.randrange(2**31),
                "max_rounds": DYNAMICS_MAX_ROUNDS,
                "oracle": "exact",
            },
        }
        batch.append(Scenario(f"dynamics-{start}", "dynamics", body))
    return batch


def build(workload: str, seed: int, size: str = "full") -> list[Scenario]:
    """The scenario batch that one pass of `workload` runs."""
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}, expected one of {SIZES}")
    if workload == "poa-combined":
        return _poa_batch(seed, size, "full_combined")
    if workload == "poa-fog-only":
        return _poa_batch(seed, size, "fog_only")
    if workload == "dynamics-profile":
        return _dynamics_batch(seed, size)
    raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")
