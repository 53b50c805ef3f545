"""Strict parsing of a scenario's sections.

Unknown keys anywhere are rejected with the offending key named, so
misspelled fields never pass silently, and a value of the wrong JSON type
(a string or boolean count, a fractional vertex, a three-element edge) is
rejected with its field named.  A graph or state section is checked in
full before anything is built.  The parser validates and counts and runs
no guard: a state section yields its player counts n1 and n2, the edges
the cost guard can count before anything is built, and one builder of
the state.  A generator graph and a bare n2's strategies are built only
when the builder is called.  foggame.scenario runs every early refusal on
those counts, then the parsed sections.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Callable, TypeVar

from .errors import ScenarioError
from .graph import Graph, new_graph
from .model import (
    GameConfig,
    GameState,
    JobCostType,
    Level1Profile,
    Level2Profile,
    TransitPolicy,
    _check_player_counts,
    build_level1_graph,
)

_TOP_KEYS = {
    "gen": {"mode", "graph"},
    "cost": {"mode", "graph", "n2", "config", "options", "allow_unequal"},
    "nash": {"mode", "graph", "n2", "config", "options", "allow_unequal"},
    "dynamics": {"mode", "graph", "n2", "config", "options", "allow_unequal"},
    "bounds": {"mode", "graph", "n2", "config", "options", "allow_unequal"},
    "poa": {"mode", "graph", "n2", "config"},
    "verify": {"mode"},
}

_GENERATOR_KEYS = {"kind", "n", "p", "seed", "require_connected"}
_INLINE_KEYS = {"n", "edges"}
_CONFIG_KEYS = {"alpha", "beta", "job_cost_type", "rcs_constant", "transit"}

_OPTION_KEYS = {
    "cost": {"level1_strategies", "level2_strategies"},
    "nash": {"level1_strategies", "level2_strategies", "scope"},
    "bounds": {"level1_strategies", "level2_strategies"},
    "dynamics": {
        "level1_strategies",
        "level2_strategies",
        "scope",
        "schedule",
        "seed",
        "max_rounds",
        "oracle",
    },
}


def _check_keys(section: dict, allowed: set[str], where: str) -> None:
    for key in sorted(section):
        if key not in allowed:
            raise ScenarioError(f"{where}: unknown key {key!r}")


def _require(section: dict, key: str, where: str) -> Any:
    if key not in section:
        raise ScenarioError(f"{where}: missing required key {key!r}")
    return section[key]


def _integer(value: Any, where: str, minimum: int | None = None) -> int:
    # bool is an int subclass, but JSON true/false is not a count or an index.
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{where}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ScenarioError(f"{where}: must be at least {minimum}, got {value}")
    return value


def _number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where}: expected a number, got {value!r}")
    return float(value)


_E = TypeVar("_E", bound=Enum)


def _member(kind: type[_E], value: Any, where: str) -> _E:
    try:
        return kind(value)
    except ValueError:
        choices = [member.value for member in kind]
        raise ScenarioError(f"{where} must be one of {choices}, got {value!r}") from None


def _boolean(value: Any, where: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(f"{where}: expected true or false, got {value!r}")
    return value


def _parse_edge(raw: Any) -> tuple[int, int]:
    if not isinstance(raw, list) or len(raw) != 2:
        raise ScenarioError(f"graph.edges: each edge must be a pair of vertices, got {raw!r}")
    return _integer(raw[0], "graph.edges"), _integer(raw[1], "graph.edges")


def _graph_builder(section: Any) -> tuple[int, Callable[[], Graph]]:
    """Validate a graph section; return its vertex count and its builder.

    An inline graph is built here, at the cost of reading its edge list; a
    generator graph is built only when the builder is called, so a guard
    can refuse its size first.
    """
    if not isinstance(section, dict):
        raise ScenarioError("graph: expected an object")
    if "edges" in section:
        _check_keys(section, _INLINE_KEYS, "graph")
        n = _integer(_require(section, "n", "graph"), "graph.n")
        edges = section["edges"]
        if not isinstance(edges, list):
            raise ScenarioError("graph: edges must be a list of pairs")
        g = new_graph(n, [_parse_edge(e) for e in edges])
        return n, lambda: g
    _check_keys(section, _GENERATOR_KEYS, "graph")
    kind = _require(section, "kind", "graph")
    n = _integer(_require(section, "n", "graph"), "graph.n")
    if kind != "erdos_renyi":
        for key in ("p", "seed"):
            if key in section:
                raise ScenarioError(f"graph.{key}: only erdos_renyi reads it, not {kind!r}")
    p = section.get("p")
    p = None if p is None else _number(p, "graph.p")
    seed = section.get("seed")
    seed = None if seed is None else _integer(seed, "graph.seed")
    require_connected = _boolean(
        section.get("require_connected", False), "graph.require_connected"
    )
    from . import generators  # loaded for a generator section only

    generators.check_generator(kind, n, p, seed)
    return n, lambda: generators.generate(
        kind, n, p=p, seed=seed, require_connected=require_connected
    )


def writable_section(data: dict, name: str) -> dict:
    """data[name] for a flag or a sweep value to write into, made if absent.

    A null config reads as the defaults, so it is replaced as well; any
    other value that is not an object is refused as run_spec refuses it.
    """
    section = data.setdefault(name, {})
    if section is None and name == "config":
        section = data[name] = {}
    if not isinstance(section, dict):
        raise ScenarioError(f"{name}: expected an object")
    return section


def _parse_config(section: Any) -> GameConfig:
    if section is None:
        return GameConfig()
    if not isinstance(section, dict):
        raise ScenarioError("config: expected an object")
    _check_keys(section, _CONFIG_KEYS, "config")
    kwargs: dict[str, Any] = {
        name: _number(section[name], f"config.{name}")
        for name in ("alpha", "beta", "rcs_constant")
        if name in section
    }
    if "job_cost_type" in section:
        kwargs["job_cost_type"] = _member(
            JobCostType, section["job_cost_type"], "config: job_cost_type"
        )
    if "transit" in section:
        kwargs["transit_policy"] = _member(TransitPolicy, section["transit"], "config: transit")
    return GameConfig(**kwargs)


def _parse_strategies(raw: Any, where: str) -> tuple[frozenset[int], ...]:
    if not isinstance(raw, list):
        raise ScenarioError(f"{where}: expected a list of vertex lists")
    out = []
    for entry in raw:
        if not isinstance(entry, list):
            raise ScenarioError(f"{where}: each strategy must be a list of vertices")
        out.append(frozenset(_integer(v, where) for v in entry))
    return tuple(out)


def _state_builder(
    data: dict, options: dict, mode: str
) -> tuple[int, int, int, Callable[[], GameState]]:
    """Validate a state section; return n1, n2, its edges and the builder of the state.

    The edges are those the cost guard can count before anything is built:
    a level-1 profile's fog edges, read from the cached graph that the
    state's g1 then reuses (a graph section's count 0, as it is not built
    yet), plus the given job links.  A generator graph is built only by
    the builder, and a bare n2 is expanded there too; given strategies are
    validated here, once.  No guard runs here.
    """
    has_graph = "graph" in data
    has_profile = "level1_strategies" in options
    if has_graph and has_profile:
        raise ScenarioError(
            f"{mode}: give either a graph or options.level1_strategies, not both"
        )
    if not has_graph and not has_profile:
        raise ScenarioError(f"{mode}: needs a graph or options.level1_strategies")

    if has_profile:
        level1 = Level1Profile(
            _parse_strategies(options["level1_strategies"], "options.level1_strategies")
        )
        n1 = level1.n1
    else:
        n1, build_graph = _graph_builder(data["graph"])

    n2 = _integer(data["n2"], "n2", minimum=0) if "n2" in data else None
    strategies = ()
    level2 = None
    if "level2_strategies" in options:
        strategies = _parse_strategies(options["level2_strategies"], "options.level2_strategies")
        if n2 is not None and n2 != len(strategies):
            raise ScenarioError(
                f"{mode}: n2={n2} disagrees with {len(strategies)} level-2 strategies"
            )
        level2 = Level2Profile(n1, strategies)  # members are checked before counts
        n2 = level2.n2
    elif n2 is None:
        raise ScenarioError(f"{mode}: needs options.level2_strategies or n2")
    allow_unequal = _boolean(data.get("allow_unequal", False), "allow_unequal")
    _check_player_counts(n1, n2, allow_unequal)
    fog_edges = build_level1_graph(level1).edge_count if has_profile else 0

    def build():
        jobs = Level2Profile(n1, (frozenset(),) * n2) if level2 is None else level2
        return GameState(level1 if has_profile else build_graph(), jobs, allow_unequal)

    return n1, n2, fog_edges + sum(map(len, strategies)), build
