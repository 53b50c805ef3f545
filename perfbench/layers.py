"""Per-layer metrics from the aggregated spans of traced passes.

Names follow `<module>.<function>.<stat>`: `calls` counts spans, `self_s`
sums self time (span time minus child spans), `total_s` sums span time.
Counts and ratios of counts repeat exactly for a fixed seed; times do not.
A metric whose function never runs on a workload reads 0.
"""

from __future__ import annotations

import json
import statistics

CALLS_SELF = (
    "graph.single_source_distances",
    "graph.Graph.adjacency",
    "model.job_player_cost",
    "model.build_combined_graph",
    "model.edge_fog_player_cost",
    "model.social_cost_level2",
    "model.GameState.with_level2_strategy",
    "model.GameState.with_level1_strategy",
)
CACHED = ("graph.all_pairs_distances", "model.build_level1_graph")
# oracle -> the cost function each of its candidates is scored with
ORACLES = {
    "equilibrium.best_response_job_exact": "model.job_player_cost",
    "equilibrium.best_response_fog_exact": "model.edge_fog_player_cost",
}
ANALYSES = (
    "equilibrium.social_optimum_level2",
    "equilibrium.enumerate_nash_level2",
    "equilibrium.empirical_poa",
    "equilibrium.best_response_dynamics",
)


def _pass_metrics(batch_traces) -> dict[str, tuple[float, str]]:
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    edge_calls: dict[tuple[str, str], int] = {}
    hits: dict[str, int] = {}
    misses: dict[str, int] = {}
    moves = ne_count = profiles = 0
    for scenario, trace, stdout in batch_traces:
        for name, parent, n, total, own in trace["spans"]:
            calls[name] = calls.get(name, 0) + n
            self_s[name] = self_s.get(name, 0.0) + own
            if parent != name:  # recursive spans are already inside their parent's total
                total_s[name] = total_s.get(name, 0.0) + total
            edge_calls[(name, parent)] = edge_calls.get((name, parent), 0) + n
        for name, info in trace["caches"].items():
            hits[name] = hits.get(name, 0) + info["hits"]
            misses[name] = misses.get(name, 0) + info["misses"]
        payload = json.loads(stdout)["payload"]
        if scenario.mode == "poa":
            ne_count += payload["ne_count"]
            profiles += 2 ** (scenario.body["graph"]["n"] * scenario.body["n2"])
        else:
            moves += len(payload["moves"])

    out: dict[str, tuple[float, str]] = {}
    for name in CALLS_SELF:
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name in CACHED:
        lookups = hits.get(name, 0) + misses.get(name, 0)
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
        out[f"{name}.hit_ratio"] = (hits.get(name, 0) / lookups if lookups else 0.0, "ratio")
    br_calls = 0
    for oracle, cost_fn in ORACLES.items():
        br_calls += calls.get(oracle, 0)
        out[f"{oracle}.calls"] = (calls.get(oracle, 0), "count")
        out[f"{oracle}.self_s"] = (self_s.get(oracle, 0.0), "s")
        out[f"{oracle}.candidates"] = (edge_calls.get((cost_fn, oracle), 0), "count")
    evals = calls.get("model.job_player_cost", 0) + calls.get("model.edge_fog_player_cost", 0)
    out["equilibrium.evals_per_br"] = (evals / br_calls if br_calls else 0.0, "evals/call")
    out["equilibrium.is_nash.calls"] = (calls.get("equilibrium.is_nash", 0), "count")
    out["equilibrium.is_nash.self_s"] = (self_s.get("equilibrium.is_nash", 0.0), "s")
    for name in ANALYSES:
        out[f"{name}.total_s"] = (total_s.get(name, 0.0), "s")
    out["equilibrium.ne_ratio"] = (ne_count / profiles if profiles else 0.0, "ratio")
    out["equilibrium.move_ratio"] = (moves / br_calls if br_calls else 0.0, "ratio")
    out["scenario.run_spec.self_s"] = (self_s.get("scenario.run_spec", 0.0), "s")
    out["serialize.emit_json.total_s"] = (total_s.get("serialize.emit_json", 0.0), "s")
    out["cli.main.total_s"] = (total_s.get("cli.main", 0.0), "s")
    return out


def per_layer(traced, untraced, scaled_wall) -> dict[str, dict]:
    """Lower median of each metric over traced passes, plus the tracing overhead.

    The lower median is an observed value, so counts stay whole numbers.

    traced holds (runs, traces) per traced pass and untraced the runs of
    each untraced pass; scaled_wall gives a pass's wall time at the
    reference speed.
    """
    per_pass = [_pass_metrics(traces) for _, traces in traced]
    metrics = {}
    for name, (_, unit) in per_pass[0].items():
        values = [p[name][0] for p in per_pass]
        metrics[name] = {"value": statistics.median_low(values), "unit": unit}
    ratio = statistics.median(scaled_wall(runs) for runs, _ in traced) / statistics.median(
        scaled_wall(runs) for runs in untraced
    )
    metrics["trace.overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    return metrics
