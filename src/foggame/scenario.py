"""Scenario files: execution of a parsed scenario and its record.

A scenario is a JSON object with a mode, an instance description, and
mode-specific options.  foggame.parsing checks every section strictly,
counts its players and edges and returns a builder of the state; run_spec
runs every early refusal on those counts, once, in the branch whose call
it guards, then the mode on the built state, and converts its payload to
JSON values once.  A nash or dynamics run's refusals are the analyses'
own, equilibrium._check_run, so a refused run builds nothing.
run_record (and foggame.sweep's sweep_record) wrap a run's payload with
the echoed scenario, the tool version, and the wall-clock duration;
everything inside the payload is deterministic for fixed seeds.  A record
leaves this module as JSON values, each part converted once, so
serialize.emit_json writes it without another walk.
"""

from __future__ import annotations

import time
from typing import Any, Callable

from . import __version__, model
from .equilibrium import (
    Scope,
    _check_joint_size,
    _check_run,
    best_response_dynamics,
    empirical_poa,
    is_nash,
)
from .errors import ScenarioError
from .parsing import (
    _OPTION_KEYS,
    _TOP_KEYS,
    _check_keys,
    _graph_builder,
    _integer,
    _member,
    _parse_config,
    _require,
    _state_builder,
)
from .serialize import to_jsonable

MODES = ("gen", "cost", "dynamics", "nash", "poa", "bounds", "verify", "sweep")


def run_spec(data: Any) -> dict:
    """Execute one parsed scenario object and return its payload."""
    return to_jsonable(_payload(data))


def _payload(data: Any) -> Any:
    """run_spec's payload, records and all, before conversion to JSON values."""
    if not isinstance(data, dict):
        raise ScenarioError("scenario: expected a JSON object")
    mode = _require(data, "mode", "scenario")
    if mode == "sweep":
        raise ScenarioError("scenario: sweep runs through the sweep command, not a mode")
    if mode not in MODES:
        raise ScenarioError(f"scenario: unknown mode {mode!r}, expected one of {MODES}")
    _check_keys(data, _TOP_KEYS[mode], "scenario")

    if mode == "gen":
        return {"graph": _graph_builder(_require(data, "graph", "scenario"))[1]()}

    if mode == "verify":
        from .verify import run_all  # loaded for its mode only, as bounds is

        results = run_all()
        return {"checks": results, "all_passed": all(r.passed for r in results)}

    cfg = _parse_config(data.get("config"))
    options = data.get("options", {})
    if not isinstance(options, dict):
        raise ScenarioError("options: expected an object")

    if mode == "poa":
        n1, build = _graph_builder(_require(data, "graph", "scenario"))
        n2 = _integer(data["n2"], "n2", minimum=0) if "n2" in data else n1
        _check_joint_size(n1, n2)  # before building the graph
        return empirical_poa(build(), n2, cfg)

    _check_keys(options, _OPTION_KEYS[mode], "options")
    n1, n2, edges, build_state = _state_builder(data, options, mode)

    if mode in ("cost", "bounds"):  # the modes that price the state
        model._within_cost_guard(n1 + n2, edges)  # before building the graph
        if mode == "cost":
            from .costs import cost_report  # loaded for this mode only

            return cost_report(build_state(), cfg)
        from .bounds import check_bounds_on_instance

        checks = check_bounds_on_instance(build_state(), cfg)
        return {"checks": checks, "all_hold": all(c.holds for c in checks)}

    # nash and dynamics.  nash takes no dynamics option, so it reads their
    # defaults: the exact oracle, asked once per scoped player by is_nash.
    scope = _member(Scope, options.get("scope", Scope.LEVEL2.value), "options: scope")
    seed = _integer(options.get("seed", 0), "options.seed")
    max_rounds = _integer(options.get("max_rounds", 100), "options.max_rounds", minimum=0)
    schedule = options.get("schedule", "round_robin")
    oracle = options.get("oracle", "exact")
    # Both refuse on the counts, before the state is built: no run on more
    # jobs than COST_PAIR_GUARD finishes, and _check_run holds the analyses'
    # own refusals.
    model._within_job_guard(n2)
    _check_run(scope, n1, n2, "level1_strategies" in options, schedule, oracle, max_rounds)
    if mode == "nash":
        stable, witness = is_nash(build_state(), cfg, scope)
        return {"is_nash": stable, "witness": witness}
    return best_response_dynamics(
        build_state(),
        cfg,
        scope,
        schedule=schedule,
        seed=seed,
        max_rounds=max_rounds,
        oracle=oracle,
    )


def _record(spec: Any, run: Callable[[], dict]) -> dict:
    """Wrap the JSON-ready payload of run() with the echoed spec, version and duration."""
    started = time.monotonic()
    payload = run()
    return {
        "spec": to_jsonable(spec),
        "version": __version__,
        "duration_seconds": time.monotonic() - started,
        "payload": payload,
    }


def run_record(data: Any) -> dict:
    """Run a scenario and wrap the payload with its echo and version."""
    return _record(data, lambda: run_spec(data))


# What foggame.sweep may patch; the CLI's --parameter flag reads it here.
_SWEEP_PARAMETERS = ("beta", "alpha", "n", "p")
