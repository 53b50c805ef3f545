"""Output gate: every scenario run is checked before it counts.

A run passes when the process exits 0, its stdout is a run record, and
  * its payload is byte-identical (canonical JSON) to every earlier run of
    the same scenario in this benchmark run, traced or not;
  * at the pinned default seed, the payload's SHA-256 matches digests.json,
    recorded at the seed commit;
  * the first time a payload is seen, its invariants hold:
    - poa: poa == worst_ne_cost / optimum_cost >= 1, both costs are the
      social costs of the reported profiles, and the worst-NE profile
      passes is_nash;
    - dynamics: every move strictly improves and replays from the start
      state to the reported final state, a converged final state passes
      is_nash over both levels, and a detected cycle really revisits it.
The digest covers `payload` only, never `duration_seconds`: it is
digest(payload) below, one per scenario name, taken from `foggame <mode>
<file>` output on the seed commit.  The program's output for a fixed
scenario must not change, so a mismatch is a failure, not a reason to
re-pin.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from foggame.equilibrium import Scope, is_nash
from foggame.model import (
    GameConfig,
    GameState,
    JobCostType,
    Level1Profile,
    Level2Profile,
    TransitPolicy,
    social_cost_level2,
)
from foggame.graph import new_graph
from workloads import Scenario

DIGESTS = Path(__file__).resolve().parent / "digests.json"


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(payload) -> str:
    return hashlib.sha256(canonical(payload).encode()).hexdigest()


def load_digests(workload: str) -> dict[str, str]:
    with open(DIGESTS, encoding="utf-8") as handle:
        return json.load(handle)[workload]


def _config(body: dict) -> GameConfig:
    c = body["config"]
    return GameConfig(
        alpha=float(c.get("alpha", 1.0)),
        beta=float(c["beta"]),
        job_cost_type=JobCostType(c["job_cost_type"]),
        transit_policy=TransitPolicy(c["transit"]),
    )


def _profile(n1: int, strategies) -> Level2Profile:
    return Level2Profile(n1, tuple(frozenset(s) for s in strategies))


def _check_poa(body: dict, payload: dict) -> None:
    cfg = _config(body)
    g1 = new_graph(body["graph"]["n"], [tuple(e) for e in body["graph"]["edges"]])
    n1, n2 = g1.n, body["n2"]
    optimum = payload["optimum_cost"]
    worst = payload["worst_ne_cost"]
    if payload["poa"] != worst / optimum:
        raise AssertionError(f"poa {payload['poa']} != {worst} / {optimum}")
    if not payload["poa"] >= 1:
        raise AssertionError(f"poa {payload['poa']} < 1")
    if not 1 <= payload["ne_count"] <= 2 ** (n1 * n2):
        raise AssertionError(f"ne_count {payload['ne_count']} out of range")
    for key, cost in (("optimum_profile", optimum), ("worst_ne_profile", worst)):
        profile = _profile(n1, payload[key]["strategies"])
        if len(profile.strategies) != n2:
            raise AssertionError(f"{key} has {len(profile.strategies)} jobs, expected {n2}")
        state = GameState(g1, profile, allow_unequal=True)
        if social_cost_level2(state, cfg) != cost:
            raise AssertionError(f"{key} social cost differs from the reported {cost}")
    worst_state = GameState(g1, _profile(n1, payload["worst_ne_profile"]["strategies"]), True)
    stable, witness = is_nash(worst_state, cfg, Scope.LEVEL2)
    if not stable:
        raise AssertionError(f"worst-NE profile is not an equilibrium: {witness}")


def _state(level1, level2) -> GameState:
    l1 = Level1Profile(tuple(frozenset(s) for s in level1))
    return GameState(l1, _profile(l1.n1, level2))


def _check_dynamics(body: dict, payload: dict) -> None:
    options = body["options"]
    state = _state(options["level1_strategies"], options["level2_strategies"])
    visited = [state]
    for k, move in enumerate(payload["moves"]):
        if not move["cost_after"] < move["cost_before"]:
            raise AssertionError(f"move {k} does not strictly improve: {move}")
        player, new = move["player"], frozenset(move["new_strategy"])
        if move["level"] == "level1":
            old = state.level1.strategies[player]
            state = state.with_level1_strategy(player, new)
        else:
            old = state.level2.strategies[player]
            state = state.with_level2_strategy(player, new)
        if old != frozenset(move["old_strategy"]):
            raise AssertionError(f"move {k} starts from a strategy the player did not hold")
        visited.append(state)
    final = payload["final_state"]
    if state != _state(final["level1"]["strategies"], final["level2"]["strategies"]):
        raise AssertionError("replayed moves do not reach the reported final state")
    if not 1 <= payload["rounds_used"] <= options["max_rounds"]:
        raise AssertionError(f"rounds_used {payload['rounds_used']} out of range")
    if payload["outcome"] == "converged":
        stable, witness = is_nash(state, _config(body), Scope.BOTH)
        if not stable:
            raise AssertionError(f"converged final state is not an equilibrium: {witness}")
    elif payload["outcome"] == "cycle_detected":
        period = payload["cycle_period"]
        if not (isinstance(period, int) and 0 < period < len(visited) and visited[-1 - period] == state):
            raise AssertionError(f"cycle of period {period} does not return to the final state")
    elif payload["outcome"] != "budget_exhausted":
        raise AssertionError(f"unexpected outcome {payload['outcome']!r}")


INVARIANTS = {"poa": _check_poa, "dynamics": _check_dynamics}


class Gate:
    """Checks scenario outputs; remembers payloads across repetitions."""

    def __init__(self, pinned: dict[str, str] | None) -> None:
        self.pinned = pinned
        self.seen: dict[str, str] = {}

    def check(self, scenario: Scenario, returncode: int, stdout: str) -> str | None:
        """None when the run is correct, else the reason it is not."""
        if returncode != 0:
            return f"exit code {returncode}"
        try:
            payload = json.loads(stdout)["payload"]
        except (ValueError, KeyError, TypeError) as exc:
            return f"stdout is not a run record: {exc}"
        text = canonical(payload)
        previous = self.seen.get(scenario.name)
        if previous is not None:
            return None if text == previous else "payload differs from an earlier repetition"
        if self.pinned is not None:
            expected = self.pinned.get(scenario.name)
            if expected != digest(payload):
                return f"payload digest {digest(payload)} != pinned {expected}"
        try:
            INVARIANTS[scenario.mode](scenario.body, payload)
        except (AssertionError, KeyError, TypeError, ValueError) as exc:
            return f"invariant failed: {exc!r}"
        self.seen[scenario.name] = text
        return None
