"""Executable model of a two-level network creation game.

Fog devices buy links among themselves (level 1); jobs buy links into the
fog graph (level 2) under one of two cost models.  The package computes
exact best responses, equilibria, social optima, and the price of anarchy
at desk scale, and evaluates closed-form cost bounds against enumerated
instances.
"""

__version__ = "0.1.0"

# Public names by defining submodule.  They load on first access (PEP 562),
# so importing the package, or foggame.cli, imports no module it does not use.
_SUBMODULE_NAMES = {
    "bounds": (
        "BoundCheck",
        "Type2PoAVerdict",
        "check_bounds_on_instance",
        "level1_lower_bound",
        "make_check",
        "rcs_holds",
        "rcs_min_constant",
        "type1_lower_bound",
        "type1_poa_lower",
        "type1_poa_upper",
        "type1_saddle_grid",
        "type1_social_optimum",
        "type2_lower_bound",
        "type2_poa_bound",
    ),
    "costs": (
        "CostReport",
        "cost_report",
    ),
    "domination": (
        "DominationDiagnostic",
        "construct_complete_bipartite",
        "domination_diagnostic",
        "is_dominating_set",
        "min_dominating_set",
    ),
    "equilibrium": (
        "DeviationWitness",
        "DynamicsOutcome",
        "DynamicsTrace",
        "Move",
        "PoAReport",
        "Scope",
        "best_response_dynamics",
        "best_response_fog_exact",
        "best_response_job_exact",
        "best_response_job_greedy",
        "empirical_poa",
        "enumerate_nash_level2",
        "is_nash",
        "social_optimum_level2",
    ),
    "errors": (
        "FogGameError",
        "FormatError",
        "GenerationError",
        "GuardExceeded",
        "NoEquilibriumError",
        "PolicyError",
        "ScenarioError",
    ),
    "generators": ("generate",),
    "graph": (
        "INF",
        "Graph",
        "VertexSet",
        "all_pairs_distances",
        "is_connected",
        "new_graph",
        "single_source_distances",
    ),
    "model": (
        "GameConfig",
        "GameState",
        "JobCostType",
        "Level1Profile",
        "Level2Profile",
        "TransitPolicy",
        "build_combined_graph",
        "build_level1_graph",
        "edge_fog_player_cost",
        "interconnection_count",
        "job_player_cost",
        "social_cost_level1",
        "social_cost_level2",
    ),
}
_EXPORTS = {name: module for module, names in _SUBMODULE_NAMES.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
