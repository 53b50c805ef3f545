"""Scenario execution, JSON/CSV emission, and the command line front end."""

import argparse
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from foggame import cli, generators, model, parsing, scenario, verify
from foggame.errors import FormatError, ScenarioError
from foggame.graph import GENERATOR_KINDS
from foggame.scenario import MODES, run_record, run_spec
from foggame.serialize import emit_json, to_jsonable
from foggame.sweep import sweep_records
from foggame.tabular import emit_csv
from foggame.verify import CheckResult


def revive_infinities(obj):
    """Inverse of the "inf" encoding applied by to_jsonable."""
    if obj == "inf":
        return math.inf
    if obj == "-inf":
        return -math.inf
    if isinstance(obj, list):
        return [revive_infinities(x) for x in obj]
    if isinstance(obj, dict):
        return {k: revive_infinities(v) for k, v in obj.items()}
    return obj


def parse_record(text):
    """Parse emitted JSON, restoring infinite values."""
    return revive_infinities(json.loads(text))


def emitted(record):
    """The text the CLI prints for a record: one conversion, then the stream."""
    out = io.StringIO()
    emit_json(to_jsonable(record), out)
    return out.getvalue()


def _write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


POA_K3 = {
    "mode": "poa",
    "graph": {"kind": "complete", "n": 3},
    "config": {"beta": 0.5},
}


# ------------------------------------------------------------------- run_spec


def test_run_spec_gen_inline_and_generator():
    out = run_spec({"mode": "gen", "graph": {"kind": "star", "n": 4}})
    assert out == {"graph": {"n": 4, "edges": [[0, 1], [0, 2], [0, 3]]}}
    out = run_spec({"mode": "gen", "graph": {"n": 2, "edges": [[1, 0]]}})
    assert out == {"graph": {"n": 2, "edges": [[0, 1]]}}


def test_run_spec_gen_surfaces_graph_validation():
    with pytest.raises(ValueError, match="duplicate edge"):
        run_spec({"mode": "gen", "graph": {"n": 2, "edges": [[0, 1], [1, 0]]}})


def test_run_spec_rejects_unknown_keys_everywhere():
    with pytest.raises(ScenarioError, match="unknown key 'bogus'"):
        run_spec({"mode": "poa", "graph": {"kind": "path", "n": 3}, "bogus": 1})
    with pytest.raises(ScenarioError, match="graph: unknown key"):
        run_spec({"mode": "gen", "graph": {"kind": "path", "n": 3, "weighted": True}})
    with pytest.raises(ScenarioError, match="config: unknown key"):
        run_spec({"mode": "poa", "graph": {"kind": "path", "n": 3}, "config": {"gamma": 2}})
    with pytest.raises(ScenarioError, match="options: unknown key"):
        run_spec(
            {
                "mode": "cost",
                "graph": {"kind": "path", "n": 3},
                "n2": 3,
                "options": {"verbose": True},
            }
        )


def test_run_spec_rejects_bad_modes():
    with pytest.raises(ScenarioError, match="unknown mode"):
        run_spec({"mode": "simulate"})
    with pytest.raises(ScenarioError, match="sweep command"):
        run_spec({"mode": "sweep"})
    with pytest.raises(ScenarioError, match="expected a JSON object"):
        run_spec([1, 2])


def test_run_spec_cost_payload():
    out = run_spec(
        {
            "mode": "cost",
            "graph": {"kind": "complete", "n": 2},
            "config": {"beta": 1.5},
            "options": {"level2_strategies": [[0], []]},
            "allow_unequal": True,
        }
    )
    assert out["level2_costs"] == [4.5, "inf"]
    assert out["social_level2"] == "inf"
    assert out["interconnection_count"] == 1


def test_run_spec_cost_with_job_count_only():
    out = run_spec({"mode": "cost", "graph": {"kind": "path", "n": 3}, "n2": 3})
    assert out["level2_costs"] == ["inf", "inf", "inf"]


def test_run_spec_nash_and_bounds():
    out = run_spec(
        {
            "mode": "nash",
            "graph": {"kind": "complete", "n": 2},
            "config": {"beta": 0.5},
            "options": {"level2_strategies": [[0, 1], [0, 1]]},
        }
    )
    assert out == {"is_nash": True, "witness": None}
    out = run_spec(
        {
            "mode": "bounds",
            "graph": {"kind": "complete", "n": 3},
            "config": {"beta": 0.5},
            "options": {"level2_strategies": [[0, 1, 2]] * 3},
        }
    )
    assert out["all_hold"] is True
    assert {c["name"] for c in out["checks"]} == {
        "type2-social-lower-bound",
        "type2-poa-regime",
    }


def test_run_spec_dynamics_payload():
    out = run_spec(
        {
            "mode": "dynamics",
            "graph": {"kind": "star", "n": 4},
            "n2": 4,
            "config": {"beta": 1.5},
        }
    )
    assert out["outcome"] == "converged"
    assert len(out["moves"]) == 4
    assert out["final_state"]["level2"]["strategies"] == [[0], [0], [0], [0]]


def test_run_spec_graph_profile_exclusivity():
    with pytest.raises(ScenarioError, match="not both"):
        run_spec(
            {
                "mode": "cost",
                "graph": {"kind": "path", "n": 2},
                "n2": 2,
                "options": {"level1_strategies": [[1], []]},
            }
        )
    with pytest.raises(ScenarioError, match="needs a graph"):
        run_spec({"mode": "cost", "n2": 2})


def test_run_spec_checks_n2_consistency():
    with pytest.raises(ScenarioError, match="disagrees"):
        run_spec(
            {
                "mode": "cost",
                "graph": {"kind": "path", "n": 2},
                "n2": 3,
                "options": {"level2_strategies": [[0]]},
            }
        )


def test_state_builder_counts_and_runs_no_guard(monkeypatch):
    # The parser only validates and counts; run_spec runs the guards on
    # the counts.  A profile's fog edges count once however often they
    # were bought, and the given job links are added.
    options = {"level1_strategies": [[1], [0, 2], []], "level2_strategies": [[0], [1, 2], []]}
    n1, n2, edges, build = parsing._state_builder({}, options, "nash")
    assert (n1, n2, edges) == (3, 3, 5)
    assert build().g1.edge_count == 2
    # Past every guard, nothing is refused or built here.
    _refuse_building(monkeypatch)
    big = {"graph": {"kind": "path", "n": 5000}, "n2": 5000}
    assert parsing._state_builder(big, {}, "cost")[:3] == (5000, 5000, 0)


def test_run_spec_config_enum_errors():
    path2 = {"kind": "path", "n": 2}
    with pytest.raises(ScenarioError) as refused:
        run_spec({"mode": "poa", "graph": path2, "config": {"job_cost_type": "type3"}})
    assert str(refused.value) == (
        "config: job_cost_type must be one of ['type1', 'type2'], got 'type3'"
    )
    with pytest.raises(ScenarioError) as refused:
        run_spec({"mode": "poa", "graph": path2, "config": {"transit": "teleport"}})
    assert str(refused.value) == (
        "config: transit must be one of ['fog_only', 'full_combined'], got 'teleport'"
    )
    for mode, scope in (("nash", "all"), ("dynamics", ["x"])):
        with pytest.raises(ScenarioError) as refused:
            run_spec({"mode": mode, "graph": path2, "n2": 2, "options": {"scope": scope}})
        assert str(refused.value) == (
            f"options: scope must be one of ['level1', 'level2', 'both'], got {scope!r}"
        )


def test_run_record_wraps_payload():
    record = run_record(dict(POA_K3))
    assert record["version"] == scenario.__version__
    assert record["spec"]["mode"] == "poa"
    assert record["duration_seconds"] >= 0.0
    assert record["payload"]["poa"] == 1.0
    assert record["payload"]["optimum_cost"] == 13.5


# -------------------------------------------------------------- serialization


def test_emit_json_canonical_form():
    text = emitted({"b": 1, "a": math.inf})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert '"inf"' in text


def test_emit_json_refuses_nan():
    with pytest.raises(ValueError, match="JSON compliant"):
        emitted({"poa": math.nan})


def test_to_jsonable_rejects_unknown_types():
    with pytest.raises(FormatError, match="cannot serialize"):
        to_jsonable(object())


def test_json_round_trip_preserves_infinities():
    rng = random.Random(510)

    def build(depth=0):
        roll = rng.random()
        if depth > 2 or roll < 0.3:
            return rng.choice([1, -2.5, math.inf, -math.inf, "text", True, None])
        if roll < 0.65:
            return [build(depth + 1) for _ in range(rng.randint(0, 3))]
        return {f"k{i}": build(depth + 1) for i in range(rng.randint(0, 3))}

    for _ in range(50):
        payload = {"data": build()}
        assert parse_record(emitted(payload)) == payload


def test_cost_csv_includes_inf_rows():
    payload = run_spec(
        {
            "mode": "cost",
            "graph": {"kind": "complete", "n": 2},
            "config": {"beta": 1.5},
            "options": {"level2_strategies": [[0], []]},
            "allow_unequal": True,
        }
    )
    lines = emit_csv("cost", payload).splitlines()
    assert lines[0] == "player,level,cost"
    assert lines[3] == "0,2,4.5"
    assert lines[4] == "1,2,inf"


def test_bounds_csv_header():
    payload = run_spec(
        {
            "mode": "bounds",
            "graph": {"kind": "complete", "n": 3},
            "config": {"beta": 0.5},
            "options": {"level2_strategies": [[0, 1, 2]] * 3},
        }
    )
    lines = emit_csv("bounds", payload).splitlines()
    assert lines[0] == "name,lhs,rhs,relation,holds,context"
    assert lines[1].startswith("type2-social-lower-bound,13.5,13.5,>=,True")


def test_emit_csv_rejects_non_tabular_modes():
    with pytest.raises(FormatError, match="no tabular csv"):
        emit_csv("nash", {"is_nash": True, "witness": None})
    with pytest.raises(FormatError, match="price-of-anarchy"):
        emit_csv("sweep", {"records": [{"payload": {"is_nash": True}}]})


# ---------------------------------------------------------------------- sweep


def test_sweep_records_over_beta():
    out = sweep_records(dict(POA_K3), "beta", [0.5, 1.5, 3.5])
    assert out["parameter"] == "beta"
    optima = [r["payload"]["optimum_cost"] for r in out["records"]]
    assert optima == [13.5, 19.5, 25.5]
    poas = [r["payload"]["poa"] for r in out["records"]]
    assert poas == [1.0, 1.0, 1.0]
    counts = [r["payload"]["ne_count"] for r in out["records"]]
    assert counts == [1, 27, 27]


def test_sweep_records_over_n_patches_the_generator():
    template = {"mode": "poa", "graph": {"kind": "path", "n": 2}, "config": {"beta": 0.5}}
    out = sweep_records(template, "n", [2, 3])
    assert [r["spec"]["graph"]["n"] for r in out["records"]] == [2, 3]


def test_sweep_records_validation():
    with pytest.raises(ScenarioError, match="generator graph"):
        sweep_records({"mode": "poa", "graph": {"n": 2, "edges": []}}, "n", [2])
    with pytest.raises(ScenarioError, match="parameter"):
        sweep_records(dict(POA_K3), "delta", [1.0])
    with pytest.raises(ScenarioError, match="at least one value"):
        sweep_records(dict(POA_K3), "beta", [])
    for value in (2.5, math.inf, math.nan):
        with pytest.raises(ScenarioError, match="whole numbers"):
            sweep_records(dict(POA_K3), "n", [value])


def test_sweep_records_refuses_a_template_that_is_not_an_object():
    with pytest.raises(ScenarioError) as refused:
        sweep_records([1], "beta", [1.0])
    assert str(refused.value) == "sweep: template must be a JSON object"


def test_sweep_csv_shape():
    out = sweep_records(dict(POA_K3), "beta", [0.5, 1.5])
    lines = emit_csv("sweep", out).splitlines()
    assert lines[0] == "parameter,value,poa,optimum_cost,worst_ne_cost,ne_count"
    assert lines[1] == "beta,0.5,1.0,13.5,13.5,1"
    assert lines[2] == "beta,1.5,1.0,19.5,19.5,27"


# ------------------------------------------------------------------- cli.main


def test_main_gen_flags(capsys):
    assert cli.main(["gen", "--kind", "path", "--n", "3"]) == cli.EXIT_OK
    record = json.loads(capsys.readouterr().out)
    assert record["payload"]["graph"] == {"n": 3, "edges": [[0, 1], [1, 2]]}


def test_main_runs_a_scenario_file(tmp_path, capsys):
    path = _write(tmp_path, "poa.json", POA_K3)
    assert cli.main(["poa", path]) == cli.EXIT_OK
    record = json.loads(capsys.readouterr().out)
    assert record["payload"]["poa"] == 1.0


def test_main_beta_override(tmp_path, capsys):
    path = _write(tmp_path, "poa.json", {"mode": "poa", "graph": {"kind": "complete", "n": 3}})
    assert cli.main(["poa", path, "--beta", "3.5"]) == cli.EXIT_OK
    record = json.loads(capsys.readouterr().out)
    assert record["payload"]["optimum_cost"] == 25.5
    assert record["spec"]["config"]["beta"] == 3.5


def test_main_mode_mismatch(tmp_path, capsys):
    path = _write(tmp_path, "poa.json", POA_K3)
    assert cli.main(["cost", path]) == cli.EXIT_USAGE
    assert "declares mode" in capsys.readouterr().err


def test_main_bad_scenario_files(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert cli.main(["poa", missing]) == cli.EXIT_USAGE
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert cli.main(["poa", str(broken)]) == cli.EXIT_USAGE
    unknown = _write(tmp_path, "unknown.json", dict(POA_K3, bogus=1))
    assert cli.main(["poa", unknown]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "unknown key 'bogus'" in err
    # json.load recurses once per nesting level; a sweep template is read
    # the same way.
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 100_000 + "]" * 100_000)
    for argv in (["poa", str(nested)], ["sweep", str(nested), "--parameter", "beta", "--values", "1"]):
        assert cli.main(argv) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "foggame: scenario file is nested too deeply to parse\n"


def test_main_sweep_refuses_a_template_that_is_not_an_object(tmp_path, capsys):
    path = _write(tmp_path, "array.json", [POA_K3])
    assert cli.main(["sweep", path, "--parameter", "beta", "--values", "1"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "foggame: scenario: expected a JSON object\n"


def test_main_type1_bounds_refuse_no_fog_vertices(tmp_path, capsys):
    # The type-1 bound is defined for n >= 1 only, so it refuses before the
    # reciprocal-sum check is reached.
    body = {"graph": {"n": 0, "edges": []}, "n2": 0, "config": {"job_cost_type": "type1"}}
    assert cli.main(["bounds", _write(tmp_path, "empty.json", body)]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "foggame: need n >= 1, got 0\n"


def test_main_guard_exit_code(tmp_path, capsys):
    path = _write(
        tmp_path, "big.json", {"mode": "poa", "graph": {"kind": "path", "n": 6}}
    )
    assert cli.main(["poa", path]) == cli.EXIT_GUARD
    assert "guard exceeded" in capsys.readouterr().err


def test_main_guard_bounds_predicted_work(tmp_path, capsys):
    # Path 4 has 2 lend classes: 4 jobs read 2^3 * (4*2 + 2^4) = 192 job
    # costs.  Path 6 has 28: 4 jobs would read 28^3 * (4*28 + 2^6); the
    # walk refuses at its 11th class, on 11^3 * (4*11 + 2^6).
    small = _write(tmp_path, "p4.json", {"mode": "poa", "graph": {"kind": "path", "n": 4}})
    assert cli.main(["poa", small, "--n2", "4"]) == cli.EXIT_OK
    capsys.readouterr()
    large = _write(tmp_path, "p6.json", {"mode": "poa", "graph": {"kind": "path", "n": 6}})
    assert cli.main(["poa", large, "--n2", "4"]) == cli.EXIT_GUARD
    assert "size 143748 > limit 131072" in capsys.readouterr().err


@pytest.mark.parametrize("n", [3, 4])
def test_main_bounds_at_zero_beta_skips_the_poa_check(tmp_path, capsys, n):
    # The paper states no TYPE_II price of anarchy for beta = 0, so the
    # check is skipped whether or not the joint guard admits the shape.
    scenario_file = {"graph": {"kind": "path", "n": n}, "n2": n, "config": {"beta": 0}}
    path = _write(tmp_path, "beta0.json", scenario_file)
    assert cli.main(["bounds", path]) == cli.EXIT_OK
    payload = parse_record(capsys.readouterr().out)["payload"]
    assert [c["name"] for c in payload["checks"]] == ["type2-social-lower-bound"]
    assert payload["all_hold"] is True


@pytest.mark.parametrize(
    "scenario_file, lhs",
    [
        # no players: the optimum costs 0, so the ratio is undefined
        ({"graph": {"n": 0, "edges": []}, "n2": 0}, 0),
        # jobs without links cost inf, and so does every optimum
        ({"graph": {"kind": "path", "n": 2}, "n2": 2, "config": {"beta": 1e308}}, math.inf),
    ],
)
def test_main_bounds_skips_an_undefined_poa_check(tmp_path, capsys, scenario_file, lhs):
    # empirical_poa refuses both with ValueError; the lower bounds still run.
    path = _write(tmp_path, "undefined.json", scenario_file)
    assert cli.main(["bounds", path]) == cli.EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    payload = parse_record(captured.out)["payload"]
    assert [(c["name"], c["lhs"]) for c in payload["checks"]] == [
        ("type2-social-lower-bound", lhs)
    ]
    assert payload["all_hold"] is True


def test_main_bounds_guard_refuses_before_generating_the_graph(tmp_path, monkeypatch, capsys):
    # The bounds mode prices every player as the cost mode does, under the
    # same guard: path 3000 with 3000 jobs has 6000^2 pairs on its
    # edgeless shape alone.
    def no_generate(*args, **kwargs):
        raise AssertionError("the graph was generated before the guard refused it")

    monkeypatch.setattr(generators, "generate", no_generate)
    body = {"mode": "bounds", "graph": {"kind": "path", "n": 3000}, "n2": 3000}
    path = _write(tmp_path, "long.json", body)
    assert cli.main(["bounds", path]) == cli.EXIT_GUARD
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "foggame: cost evaluation guard exceeded: size 36000000 > limit 16777216\n"
    )


def test_main_bounds_guard_counts_the_built_edges(tmp_path, capsys):
    # K_300 with 300 jobs passes on its edgeless shape (600^2 pairs); once
    # built, 600 BFS over its 44,850 edges do not.
    body = {"mode": "bounds", "graph": {"kind": "complete", "n": 300}, "n2": 300}
    assert cli.main(["bounds", _write(tmp_path, "k300.json", body)]) == cli.EXIT_GUARD
    assert capsys.readouterr().err == (
        "foggame: cost evaluation guard exceeded: size 27270000 > limit 16777216\n"
    )


def test_main_guard_refuses_before_generating_the_graph(tmp_path, monkeypatch, capsys):
    # K_1000 has 499,500 edges; the shape alone clears the budget, so the
    # refusal must not pay for them.  Its 2^1000 table costs are clamped at
    # the guard's bit length, 2^18.
    def no_generate(*args, **kwargs):
        raise AssertionError("the graph was generated before the guard refused it")

    monkeypatch.setattr(generators, "generate", no_generate)
    path = _write(tmp_path, "k1000.json", {"mode": "poa", "graph": {"kind": "complete", "n": 1000}})
    assert cli.main(["poa", path]) == cli.EXIT_GUARD
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "foggame: joint profile enumeration guard exceeded: size 263144 > limit 131072\n"
    )
    # An invalid generator section is still reported as such, guard or not.
    bogus = _write(tmp_path, "bogus.json", {"mode": "poa", "graph": {"kind": "bogus", "n": 1000}})
    assert cli.main(["poa", bogus]) == cli.EXIT_USAGE
    assert "unknown generator kind 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "mode, options",
    [
        ("nash", {}),
        ("nash", {"scope": "level2"}),
        ("dynamics", {}),
        ("dynamics", {"schedule": "random_permutation", "max_rounds": 1}),
    ],
)
def test_main_exact_guard_refuses_before_generating_the_graph(
    tmp_path, monkeypatch, capsys, mode, options
):
    # K_400 has 79,800 edges; the first exact oracle call refuses n1 = 400,
    # so the refusal must not pay for them.
    def no_generate(*args, **kwargs):
        raise AssertionError("the graph was generated before the guard refused it")

    monkeypatch.setattr(generators, "generate", no_generate)
    body = {"mode": mode, "graph": {"kind": "complete", "n": 400}, "n2": 400, "options": options}
    path = _write(tmp_path, "k400.json", body)
    assert cli.main([mode, path]) == cli.EXIT_GUARD
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "foggame: exact best-response enumeration guard exceeded: size 400 > limit 20\n"
    )


def test_main_cost_guard_refuses_before_generating_the_graph(tmp_path, monkeypatch, capsys):
    # Path 2^20 + 1 is within GENERATION_PAIR_GUARD, but a BFS from each
    # of its vertices would take some 2^40 steps: the shape alone is refused.
    def no_generate(*args, **kwargs):
        raise AssertionError("the graph was generated before the guard refused it")

    monkeypatch.setattr(generators, "generate", no_generate)
    n = 2**20 + 1
    body = {"mode": "cost", "graph": {"kind": "path", "n": n}, "n2": 1, "allow_unequal": True}
    path = _write(tmp_path, "long.json", body)
    assert cli.main(["cost", path]) == cli.EXIT_GUARD
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"foggame: cost evaluation guard exceeded: size {(n + 1) ** 2} > limit 16777216\n"
    )


def test_main_cost_guard_counts_the_built_edges(tmp_path, capsys):
    # K_400 without jobs passes on its edgeless shape (400^2 pairs); once
    # built, 400 BFS over its 79,800 edges do not.
    graph = {"kind": "complete", "n": 400}
    body = {"mode": "cost", "graph": graph, "n2": 0, "allow_unequal": True}
    assert cli.main(["cost", _write(tmp_path, "k400.json", body)]) == cli.EXIT_GUARD
    assert capsys.readouterr().err == (
        "foggame: cost evaluation guard exceeded: size 32080000 > limit 16777216\n"
    )


def _refuse_building(monkeypatch):
    """Make building a generator graph or a bare n2's strategies fail the test."""

    def no_build(*args, **kwargs):
        raise AssertionError("the graph or the strategies were built before the refusal")

    monkeypatch.setattr(generators, "generate", no_build)
    monkeypatch.setattr(parsing, "Level2Profile", no_build)


@pytest.mark.parametrize("mode", ["cost", "nash", "dynamics", "bounds"])
def test_main_compares_player_counts_before_expanding_a_bare_n2(
    tmp_path, monkeypatch, capsys, mode
):
    # A bare n2 becomes n2 empty strategies only after the counts are
    # compared; 2^63 of them could not even be allocated.
    _refuse_building(monkeypatch)
    body = {"mode": mode, "graph": {"kind": "path", "n": 3}, "n2": 2**63}
    assert cli.main([mode, _write(tmp_path, "huge.json", body)]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "foggame: player counts differ (n1=3, n2=9223372036854775808); "
        'pass allow_unequal=True (scenario key "allow_unequal": true) to permit this\n'
    )


@pytest.mark.parametrize("mode", ["cost", "bounds"])
@pytest.mark.parametrize("n2", [3_000_000, 2**63])
def test_main_cost_guard_reads_a_bare_n2_before_expanding_it(
    tmp_path, monkeypatch, capsys, mode, n2
):
    # With unequal counts allowed the cost guard is the first to read n2:
    # path 3 with n2 jobs is (n2 + 3)^2 pairs on its edgeless shape.
    _refuse_building(monkeypatch)
    body = {"mode": mode, "graph": {"kind": "path", "n": 3}, "n2": n2, "allow_unequal": True}
    assert cli.main([mode, _write(tmp_path, "many.json", body)]) == cli.EXIT_GUARD
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"foggame: cost evaluation guard exceeded: size {(n2 + 3) ** 2} > limit 16777216\n"
    )


@pytest.mark.parametrize("mode", ["nash", "dynamics"])
@pytest.mark.parametrize("n2", [2**63, 10**11])
def test_main_refuses_more_jobs_than_the_cost_guard_in_nash_and_dynamics(
    tmp_path, monkeypatch, mode, n2
):
    # A run builds and asks every job, so none on more than COST_PAIR_GUARD
    # jobs can finish.  Before this refusal a bare 2^63 ended in an
    # OverflowError traceback and 10^11 in a MemoryError one, both while
    # building the strategies.
    body = {"mode": mode, "graph": {"kind": "path", "n": 3}, "n2": n2, "allow_unequal": True}
    path = _write(tmp_path, "many.json", body)
    proc = subprocess.run(
        [sys.executable, "-m", "foggame.cli", mode, path],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=60,
    )
    assert proc.returncode == cli.EXIT_GUARD
    assert "Traceback" not in proc.stderr
    assert proc.stderr == f"foggame: job count guard exceeded: size {n2} > limit 16777216\n"
    assert proc.stdout == ""
    # the guard is read when the run starts, before anything is built
    _refuse_building(monkeypatch)
    monkeypatch.setattr(model, "COST_PAIR_GUARD", 2)
    body["n2"] = 3
    assert cli.main([mode, _write(tmp_path, "three.json", body)]) == cli.EXIT_GUARD
    monkeypatch.undo()
    monkeypatch.setattr(model, "COST_PAIR_GUARD", 3)
    assert cli.main([mode, _write(tmp_path, "three.json", body)]) == cli.EXIT_OK


@pytest.mark.parametrize(
    "mode, extra, options, code, message",
    [
        # no jobs: no oracle call, so nothing to refuse
        ("nash", {"n2": 0, "allow_unequal": True}, {}, cli.EXIT_OK, None),
        # a level-1 scope on a fixed graph is a policy error, not a guard refusal
        (
            "nash",
            {"n2": 25},
            {"scope": "both"},
            cli.EXIT_USAGE,
            "foggame: level-1 scope needs profile mode, not a fixed graph\n",
        ),
        (
            "dynamics",
            {"n2": 25},
            {"scope": "level1"},
            cli.EXIT_USAGE,
            "foggame: level-1 scope needs profile mode, not a fixed graph\n",
        ),
        # the greedy oracle and a zero round budget never reach the guard
        ("dynamics", {"n2": 1, "allow_unequal": True}, {"oracle": "greedy"}, cli.EXIT_OK, None),
        ("dynamics", {"n2": 25}, {"max_rounds": 0}, cli.EXIT_OK, None),
        # fields checked before the oracle runs are still reported as such
        (
            "dynamics",
            {"n2": 25},
            {"schedule": "bogus"},
            cli.EXIT_USAGE,
            "foggame: unknown schedule 'bogus'\n",
        ),
        (
            "dynamics",
            {"n2": 25},
            {"oracle": "magic"},
            cli.EXIT_USAGE,
            "foggame: unknown oracle 'magic'\n",
        ),
        (
            "nash",
            {"n2": 24},
            {},
            cli.EXIT_USAGE,
            "foggame: player counts differ (n1=25, n2=24); "
            'pass allow_unequal=True (scenario key "allow_unequal": true) to permit this\n',
        ),
        # a level-1 scope in profile mode asks 25 fog players
        (
            "nash",
            {"n2": 25},
            {"level1_strategies": [[]] * 25, "scope": "level1"},
            cli.EXIT_GUARD,
            "foggame: exact best-response enumeration guard exceeded: size 25 > limit 20\n",
        ),
        # a bad schedule is refused before a graph too large to generate
        (
            "dynamics",
            {"graph": {"kind": "complete", "n": 2000}, "n2": 2000},
            {"schedule": "bogus"},
            cli.EXIT_USAGE,
            "foggame: unknown schedule 'bogus'\n",
        ),
    ],
)
def test_main_runs_past_the_exact_guard_keep_their_outcome(
    tmp_path, monkeypatch, capsys, mode, extra, options, code, message
):
    body = {"mode": mode, "options": options, **extra}
    if "level1_strategies" not in options:
        body.setdefault("graph", {"kind": "path", "n": 25})
    path = _write(tmp_path, "p25.json", body)
    if message is not None:  # a refused run builds neither the graph nor the strategies
        _refuse_building(monkeypatch)
    assert cli.main([mode, path]) == code
    captured = capsys.readouterr()
    if message is None:
        assert json.loads(captured.out)["payload"]
        assert captured.err == ""
    else:
        assert captured.out == ""
        assert captured.err == message


def test_main_infinite_optimum_exits_one(tmp_path, capsys):
    # Three job costs of at least 1e308 overflow every profile's sum: the
    # run is refused instead of emitting a NaN price of anarchy.
    path = _write(
        tmp_path,
        "huge.json",
        {"mode": "poa", "graph": {"kind": "path", "n": 3}, "n2": 3, "config": {"beta": 1e308}},
    )
    assert cli.main(["poa", path]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "infinite optimum" in captured.err


@pytest.mark.parametrize("n2", [200000, 2**63 - 1])
def test_main_poa_without_fog_vertices_exits_one_on_many_jobs(tmp_path, capsys, n2):
    # Without fog vertices each job's only strategy is the empty set at
    # cost 0, so the optimum is refused before the joint guard, which would
    # refuse these n2 as a walk of n2 + 1 job-cost reads.
    path = _write(tmp_path, "many.json", {"graph": {"n": 0, "edges": []}, "n2": n2})
    assert cli.main(["poa", path]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "non-positive optimum cost 0" in captured.err


# Each scenario holds one value of the wrong JSON type or range.  The run
# must end in exit 1 with the field named, not a traceback, and not in a
# result computed from a coerced value.
_BAD_SCENARIOS = {
    "n-as-string": ("poa", '{"graph": {"kind": "path", "n": "3"}}', "graph.n"),
    "n-as-boolean": ("poa", '{"graph": {"kind": "path", "n": true}}', "graph.n"),
    "edge-of-three": ("gen", '{"graph": {"n": 3, "edges": [[0, 1, 2]]}}', "graph.edges"),
    "strategy-of-strings": (
        "cost",
        '{"graph": {"kind": "path", "n": 1}, "options": {"level2_strategies": [["a"]]}}',
        "options.level2_strategies",
    ),
    "strategy-of-floats": (
        "cost",
        '{"graph": {"kind": "path", "n": 1}, "options": {"level2_strategies": [[1.0]]}}',
        "options.level2_strategies",
    ),
    "n2-fractional": ("poa", '{"graph": {"kind": "path", "n": 2}, "n2": 1.5}', "n2"),
    "n2-as-string": ("poa", '{"graph": {"kind": "path", "n": 2}, "n2": "2"}', "n2"),
    "max-rounds-negative": (
        "dynamics",
        '{"graph": {"kind": "path", "n": 2}, "n2": 2, "options": {"max_rounds": -1}}',
        "options.max_rounds",
    ),
    "beta-nan": ("poa", '{"graph": {"kind": "path", "n": 2}, "config": {"beta": NaN}}', "beta"),
    "beta-infinity": (
        "poa",
        '{"graph": {"kind": "path", "n": 2}, "config": {"beta": Infinity}}',
        "beta",
    ),
    "alpha-nan": (
        "cost",
        '{"graph": {"kind": "path", "n": 2}, "n2": 2, "config": {"alpha": NaN}}',
        "alpha",
    ),
    "rcs-constant-infinity": (
        "bounds",
        '{"graph": {"kind": "path", "n": 2}, "n2": 2, "config": {"rcs_constant": Infinity}}',
        "rcs_constant",
    ),
    # Only erdos_renyi reads p and seed; other generators would ignore them.
    "p-on-path": ("poa", '{"graph": {"kind": "path", "n": 3, "p": 0.5}}', "graph.p"),
    "seed-on-star": ("gen", '{"graph": {"kind": "star", "n": 3, "seed": 7}}', "graph.seed"),
}


@pytest.mark.parametrize("case", sorted(_BAD_SCENARIOS))
def test_main_rejects_mistyped_scenario_fields(tmp_path, capsys, case):
    mode, text, field = _BAD_SCENARIOS[case]
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert cli.main([mode, str(path)]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert field in captured.err


# Refusals from the parser's own checks, each with its exact message.
# Three come from the state parser, before its counts or builder exist.
_REFUSED_SCENARIOS = {
    "poa-without-graph": ("poa", {"n2": 3}, "scenario: missing required key 'graph'"),
    "beta-as-string": (
        "poa",
        {"graph": {"kind": "path", "n": 3}, "config": {"beta": "x"}},
        "config.beta: expected a number, got 'x'",
    ),
    "require-connected-as-integer": (
        "gen",
        {"graph": {"kind": "path", "n": 3, "require_connected": 1}},
        "graph.require_connected: expected true or false, got 1",
    ),
    "allow-unequal-as-string": (
        "cost",
        {"graph": {"kind": "path", "n": 3}, "n2": 3, "allow_unequal": "yes"},
        "allow_unequal: expected true or false, got 'yes'",
    ),
    "edges-as-string": (
        "gen",
        {"graph": {"n": 3, "edges": "x"}},
        "graph: edges must be a list of pairs",
    ),
    "strategies-as-number": (
        "cost",
        {"graph": {"kind": "path", "n": 3}, "options": {"level2_strategies": 5}},
        "options.level2_strategies: expected a list of vertex lists",
    ),
    "strategy-as-number": (
        "cost",
        {"graph": {"kind": "path", "n": 3}, "options": {"level2_strategies": [5]}},
        "options.level2_strategies: each strategy must be a list of vertices",
    ),
    "cost-without-jobs": (
        "cost",
        {"graph": {"kind": "path", "n": 3}},
        "cost: needs options.level2_strategies or n2",
    ),
}


@pytest.mark.parametrize("case", sorted(_REFUSED_SCENARIOS))
def test_main_refuses_a_malformed_scenario_with_its_message(tmp_path, capsys, case):
    mode, body, message = _REFUSED_SCENARIOS[case]
    assert cli.main([mode, _write(tmp_path, "bad.json", body)]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"foggame: {message}\n"


def test_main_rejects_non_finite_beta_flag(capsys):
    assert cli.main(["poa", "--beta", "nan"]) == cli.EXIT_USAGE
    assert "beta must be finite" in capsys.readouterr().err


def test_main_cost_csv(tmp_path, capsys):
    path = _write(
        tmp_path,
        "cost.json",
        {
            "mode": "cost",
            "graph": {"kind": "complete", "n": 2},
            "n2": 2,
            "config": {"beta": 1.5},
        },
    )
    assert cli.main(["cost", path, "--format", "csv"]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "player,level,cost"
    assert lines[3] == "0,2,inf"


def test_main_sweep_csv(tmp_path, capsys):
    path = _write(tmp_path, "template.json", POA_K3)
    code = cli.main(
        ["sweep", path, "--parameter", "beta", "--values", "0.5,1.5", "--format", "csv"]
    )
    assert code == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "beta,0.5,1.0,13.5,13.5,1"


def test_main_sweep_of_p_needs_erdos_renyi(tmp_path, capsys):
    # A path template would print one identical row per p value.
    path = _write(tmp_path, "t.json", {"mode": "poa", "graph": {"kind": "path", "n": 2}})
    code = cli.main(["sweep", path, "--parameter", "p", "--values", "0.1,0.5"])
    assert code == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "graph.p" in captured.err


def test_main_sweep_requires_template(capsys):
    code = cli.main(["sweep", "--parameter", "beta", "--values", "1.0"])
    assert code == cli.EXIT_USAGE
    assert "needs a template" in capsys.readouterr().err


def test_main_sweep_rejects_non_numeric_values(tmp_path, capsys):
    path = _write(tmp_path, "template.json", POA_K3)
    code = cli.main(["sweep", path, "--parameter", "beta", "--values", "a,b"])
    assert code == cli.EXIT_USAGE
    assert "comma-separated numbers" in capsys.readouterr().err


def test_main_usage_errors_exit_one(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["gen", "--kind", "moebius", "--n", "3"])
    assert excinfo.value.code == cli.EXIT_USAGE
    capsys.readouterr()


# ----------------------------------------------------------- argument parsing


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on usage errors; remap to the parse exit code."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(cli.EXIT_USAGE)


def _build_parser() -> _Parser:
    """The argparse front end that cli._parse_args replaced, kept as its reference."""
    parser = _Parser(prog="foggame", description=cli.__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for mode in MODES:
        p = sub.add_parser(mode, help=f"run a {mode} scenario")
        if mode != "verify":
            p.add_argument("scenario", nargs="?", help="scenario JSON file")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        if mode == "gen":
            p.add_argument("--kind", choices=GENERATOR_KINDS)
            p.add_argument("--n", type=int)
            p.add_argument("--p", type=float)
            p.add_argument("--graph-seed", type=int, dest="graph_seed")
            p.add_argument("--require-connected", action="store_true", default=None)
        if mode in ("cost", "dynamics", "nash", "poa", "bounds", "sweep"):
            p.add_argument("--alpha", type=float, help="override config.alpha")
            p.add_argument("--beta", type=float, help="override config.beta")
        if mode == "poa":
            p.add_argument("--n2", type=int, help="override the job count")
        if mode == "dynamics":
            p.add_argument("--seed", type=int, help="override the schedule seed")
            p.add_argument("--max-rounds", type=int, dest="max_rounds")
        if mode == "sweep":
            p.add_argument("--parameter", required=True, choices=("beta", "alpha", "n", "p"))
            p.add_argument("--values", required=True, help="comma-separated values")
    return parser


_PARSE_CASES = [
    # the README examples
    ["gen", "--kind", "erdos_renyi", "--n", "8", "--p", "0.4", "--graph-seed", "7"],
    ["poa", "scenario.json", "--beta", "1.5"],
    ["dynamics", "scenario.json", "--seed", "3", "--max-rounds", "50"],
    ["sweep", "template.json", "--parameter", "beta", "--values", "0.5,1.5,3.5", "--format", "csv"],
    ["verify"],
    # every flag of every mode, options before and after the file, = forms
    ["gen", "f.json", "--format", "csv", "--kind", "path", "--n", "3", "--p", "1e-3",
     "--graph-seed", "2", "--require-connected"],
    ["gen", "--kind=star", "--n=5", "--p=1", "--graph-seed=-4", "f.json"],
    ["cost", "--alpha", "2", "--beta", "1.5", "f.json", "--format", "csv"],
    ["nash", "--alpha=0.5", "--beta=2", "f.json"],
    ["bounds", "f.json", "--format=json", "--alpha", "1", "--beta", "inf"],
    ["poa", "--n2", "4", "f.json", "--alpha", "1"],
    ["dynamics", "--seed=5", "--max-rounds=0", "--alpha", "1", "--beta", " 2 "],
    ["sweep", "t.json", "--parameter", "alpha", "--values", "1,2", "--alpha", "1", "--beta", "2"],
    ["verify", "--format", "csv"],
    ["poa", "--beta", "1", "--beta", "2.5", "--format", "csv", "--format", "json"],
    ["poa", "--beta", "nan", "--alpha", "1_000"],
    ["poa", "--n2", "0x1"],
    # unique prefixes abbreviate a flag
    ["poa", "--n", "3", "--b", "2"],
    ["gen", "--re", "--gr", "4", "--k", "star"],
    ["dynamics", "--max", "9", "--se=1", "--fo", "csv"],
    ["sweep", "t.json", "--par", "n", "--val", "2,3"],
    # negative numbers are values; "--" ends the options
    ["poa", "--beta", "-1.5", "--n2", "-3", "--alpha", "-.5"],
    ["poa", "-1"],
    ["poa", "--", "--beta"],
    ["poa", "--beta", "1", "--", "f.json"],
    ["poa", "f.json", "--"],
    ["poa", "-x y"],
    # missing and invalid commands
    [],
    ["simulate"],
    ["--format", "json", "poa"],
    ["--", "poa"],
    # invalid choices and values
    ["gen", "--kind", "moebius", "--n", "3"],
    ["poa", "--format", "xml"],
    ["sweep", "t.json", "--parameter", "gamma", "--values", "1"],
    ["gen", "--n", "3.5"],
    ["poa", "--beta", "high"],
    ["dynamics", "--seed", "-.5"],
    ["poa", "--beta="],
    # a flag without its value
    ["poa", "--beta"],
    ["poa", "--beta", "--alpha", "1"],
    ["poa", "--beta", "-1e5"],
    ["poa", "--beta", "--"],
    # required flags missing
    ["sweep", "t.json"],
    ["sweep", "t.json", "--values", "1"],
    # unrecognized arguments, before or after the mode
    ["poa", "f.json", "g.json"],
    ["verify", "f.json"],
    ["poa", "--bogus", "f.json"],
    ["cost", "--n2", "3"],
    ["--format=json", "poa"],
    ["-x", "poa", "--bogus=1"],
    ["poa", "f.json", "--beta", "1", "--"],
    # ambiguous prefixes, and switches given a value
    ["poa", "--="],
    ["gen", "--=3", "--n", "x"],
    ["gen", "--require-connected=yes"],
    ["poa", "--help=1"],
    ["poa", "-hx"],
]


def _parse_outcome(parse, argv, capsys):
    """Parsed values, or the exit code, the usage and the error line.

    -h prints no error line: its usage block, up to the first blank line of
    the help on stdout, stands for the usage.
    """
    try:
        values = vars(parse(list(argv)))
    except SystemExit as exc:
        out, err = capsys.readouterr()
        *usage, error = err.splitlines() if err else [out.partition("\n\n")[0], "(help)"]
        # argparse wraps the usage at the terminal width
        return exc.code, " ".join(" ".join(usage).split()), error
    # repr, so that a NaN matches a NaN and 2 does not match 2.0
    return repr(sorted(values.items()))


def test_parser_cases_cover_every_flag_and_error():
    assert len(_PARSE_CASES) >= 40
    used = {arg.partition("=")[0] for argv in _PARSE_CASES for arg in argv}
    assert set(cli._FLAGS) <= used


@pytest.mark.parametrize("argv", _PARSE_CASES, ids=" ".join)
def test_parser_matches_the_argparse_reference(capsys, argv):
    expected = _parse_outcome(_build_parser().parse_args, argv, capsys)
    assert _parse_outcome(cli._parse_args, argv, capsys) == expected


# Values a fuzzed flag draws: valid, invalid, negative and empty ones.
_FUZZ_VALUES = {
    int: ["3", "0", "1_000", "0x1", " 7 ", "-2", "3.5", "x", ""],
    float: ["1.5", "2", "inf", "nan", "1e-3", "-.5", "-1e5", "high", ""],
    str: ["1,2", "0.5,1.5", "beta", "", "-1", "a b"],
}


def _fuzz_word(rng: random.Random, mode: str) -> list[str]:
    """One flag with its value, a file, or a word argparse alone reads."""
    own = [flag for flag, spec in cli._FLAGS.items() if mode in spec[0]]
    flag = rng.choice(own if own and rng.random() < 0.9 else list(cli._FLAGS))
    kind, choices = cli._FLAGS[flag][1:3]
    values = list(choices or _FUZZ_VALUES[kind or str]) + ["-1", "bad"]
    value = rng.choice(list(choices) if choices and rng.random() < 0.7 else values)
    roll = rng.random()
    if roll < 0.08:
        return [rng.choice(["f.json", "g.json", "-", "--", "-1", "-.5", "--bogus", "-x", "-x y"])]
    if roll < 0.11:
        return [rng.choice(["-h", "--help", "--he", "-hx", "-hh", "--help=1"])]
    if roll < 0.2:
        flag = flag[: rng.randrange(3, len(flag))] if len(flag) > 3 else "--"
    if kind is None:
        return [flag + rng.choice(["", "", "", "=yes", "="])]
    if roll < 0.45:
        return [f"{flag}={value}"]
    return [flag, value] if roll < 0.97 else [flag]


def _fuzz_argv(rng: random.Random) -> list[str]:
    mode = rng.choice([*MODES, *MODES, "simulate", "-h", "--format", "--"])
    argv = [mode] if rng.random() < 0.98 else []
    for _ in range(rng.randrange(6)):
        argv += _fuzz_word(rng, mode)
    if rng.random() < 0.6 and mode != "verify":
        argv.insert(rng.randrange(1, len(argv) + 1) if argv else 0, "scenario.json")
    return argv


def test_parser_matches_the_argparse_reference_on_random_command_lines(capsys):
    # cli reads plain command lines itself and hands the rest to argparse;
    # either way each outcome must be the hand-built reference parser's.
    rng = random.Random(20261020)
    argvs = [_fuzz_argv(rng) for _ in range(2000)]
    reference, mismatched = _build_parser(), []
    for argv in argvs:
        expected = _parse_outcome(reference.parse_args, argv, capsys)
        if _parse_outcome(cli._parse_args, argv, capsys) != expected:
            mismatched.append(argv)
    assert mismatched[:5] == []
    plain = sum(cli._read_plain(argv) is not None for argv in argvs)
    assert 200 < plain < len(argvs) - 200


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--he", "poa"], ["-x", "-h"]])
def test_top_level_help_lists_the_modes(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("usage: foggame [-h] {gen,cost,")
    assert all(mode in out for mode in MODES)


@pytest.mark.parametrize("mode", MODES)
def test_mode_help_lists_its_flags(capsys, mode):
    # -h acts where it stands: after a valid flag, and before sweep's
    # required flags are found missing
    with pytest.raises(SystemExit) as excinfo:
        cli.main([mode, "--beta", "1", "-h"] if mode in ("poa", "sweep") else [mode, "--help"])
    assert excinfo.value.code == cli.EXIT_OK
    # argparse may wrap the usage over several lines; it ends at a blank line
    usage = capsys.readouterr().out.partition("\n\n")[0]
    assert usage.startswith(f"usage: foggame {mode} [-h]")
    flags = {flag for flag, spec in cli._FLAGS.items() if mode in spec[0]}
    assert {word.strip("[]") for word in usage.split() if word.startswith(("--", "[--"))} == flags
    assert ("[scenario]" in usage) == (mode != "verify")


# A flag or a sweep value written into a section that is not an object is
# refused with the message the run gives without it, not a traceback.
_NOT_OBJECT_SECTIONS = {
    "config-list": ("poa", {"graph": {"kind": "path", "n": 2}, "config": [1]}, ["--beta", "1.5"]),
    "config-string": ("poa", {"graph": {"kind": "path", "n": 2}, "config": "abc"}, ["--alpha", "1"]),
    "graph-list": ("gen", {"graph": [1]}, ["--kind", "path"]),
    "graph-null": ("gen", {"graph": None}, ["--require-connected"]),
    "options-string": (
        "dynamics",
        {"graph": {"kind": "path", "n": 2}, "n2": 2, "options": "x"},
        ["--seed", "2"],
    ),
    "config-list-in-a-sweep": (
        "sweep",
        {"graph": {"kind": "path", "n": 2}, "config": [1]},
        ["--parameter", "beta", "--values", "1,2"],
    ),
}


@pytest.mark.parametrize("case", sorted(_NOT_OBJECT_SECTIONS))
def test_main_refuses_flags_into_a_section_that_is_not_an_object(tmp_path, capsys, case):
    mode, body, flags = _NOT_OBJECT_SECTIONS[case]
    path = _write(tmp_path, "s.json", body)
    # a sweep template runs as a poa scenario
    plain = cli.main(["poa" if mode == "sweep" else mode, path]), *capsys.readouterr()
    flagged = cli.main([mode, path, *flags]), *capsys.readouterr()
    section = case.split("-")[0]
    assert plain == flagged == (cli.EXIT_USAGE, "", f"foggame: {section}: expected an object\n")


def test_main_flag_replaces_a_null_config(tmp_path, capsys):
    path = _write(tmp_path, "poa.json", {"graph": {"kind": "complete", "n": 3}, "config": None})
    assert cli.main(["poa", path, "--beta", "3.5"]) == cli.EXIT_OK
    assert json.loads(capsys.readouterr().out)["spec"]["config"] == {"beta": 3.5}


def test_main_gen_refuses_an_oversized_generator(tmp_path, capsys):
    path = _write(tmp_path, "huge.json", {"graph": {"kind": "path", "n": 10**12}})
    assert cli.main(["gen", path]) == cli.EXIT_GUARD
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "foggame: graph generation guard exceeded: size 999999999999 > limit 1048576\n"
    )


def test_main_verify_failure_exit_code(monkeypatch, capsys):
    failing = [
        CheckResult(name="demo-pass", passed=True, details="ok"),
        CheckResult(name="demo-fail", passed=False, details="broken"),
    ]
    monkeypatch.setattr(verify, "run_all", lambda: failing)
    assert cli.main(["verify"]) == cli.EXIT_VERIFICATION
    captured = capsys.readouterr()
    assert "demo-fail" in captured.err
    assert "demo-pass" not in captured.err
    record = json.loads(captured.out)
    assert record["payload"]["all_passed"] is False


def _child_env() -> dict:
    # The child imports the same package as this process, installed or not.
    package_root = str(Path(cli.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    return dict(
        os.environ,
        PYTHONPATH=package_root if not inherited else package_root + os.pathsep + inherited,
    )


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "foggame.cli", "gen", "--kind", "star", "--n", "3"],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["payload"]["graph"]["n"] == 3


# A CLI process freezes its import-time heap (see cli.py), so it exits
# without collecting it.  Each case runs once as a process whose stdout
# goes to a file, flushed only at exit, and once through cli.main here.
_PROCESS_CASES = {
    "poa": (["poa", "{poa}"], cli.EXIT_OK),
    "dynamics-both": (["dynamics", "{dynamics}"], cli.EXIT_OK),
    "cost-csv": (["cost", "{cost}", "--format", "csv"], cli.EXIT_OK),
    "verify": (["verify"], cli.EXIT_OK),
    "guard": (["poa", "{poa}", "--n2", "200000"], cli.EXIT_GUARD),
    "parse-error": (["gen", "--kind", "moebius", "--n", "3"], cli.EXIT_USAGE),
}
_PROCESS_SCENARIOS = {
    "poa": POA_K3,
    "dynamics": {
        "mode": "dynamics",
        "config": {"alpha": 2.0, "beta": 1.5},
        "options": {
            "level1_strategies": [[1], [2], [3], []],
            "level2_strategies": [[0], [], [1, 2], [3]],
            "scope": "both",
            "schedule": "random_permutation",
            "seed": 3,
            "max_rounds": 3,
        },
    },
    "cost": {"mode": "cost", "graph": {"kind": "star", "n": 3}, "n2": 3, "config": {"beta": 1.5}},
}


def _without_duration(out: str) -> str:
    return re.sub(r'"duration_seconds": [^,\n]*', '"duration_seconds": _', out)


@pytest.mark.parametrize("case", sorted(_PROCESS_CASES))
def test_cli_process_matches_in_process_main(tmp_path, capsys, case):
    files = {name: _write(tmp_path, f"{name}.json", body) for name, body in _PROCESS_SCENARIOS.items()}
    template, code = _PROCESS_CASES[case]
    argv = [arg.format(**files) for arg in template]
    out_path = tmp_path / "stdout.txt"
    with open(out_path, "wb") as out:
        proc = subprocess.run(
            [sys.executable, "-m", "foggame.cli", *argv],
            stdout=out,
            stderr=subprocess.PIPE,
            env=_child_env(),
            timeout=60,
        )
    try:
        in_process = cli.main(argv)
    except SystemExit as exc:
        in_process = exc.code
    captured = capsys.readouterr()
    assert (proc.returncode, in_process) == (code, code)
    assert proc.stderr.decode() == captured.err
    assert _without_duration(out_path.read_text(encoding="utf-8")) == _without_duration(captured.out)
    assert (captured.out != "") == (code == cli.EXIT_OK)


def _freeze_counts(*statements: str) -> list[int]:
    """gc.get_freeze_count() after each statement, all run in one fresh interpreter."""
    code = "import gc\n" + "".join(f"{s}\nprint(gc.get_freeze_count())\n" for s in statements)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=_child_env(),
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return [int(line) for line in proc.stdout.split()]


def test_only_the_cli_module_freezes_the_heap():
    # A library import must not pin its caller's objects; calling main
    # again and again, as a test or a sweep script does, must not either.
    assert _freeze_counts("import foggame\nfoggame.empirical_poa") == [0]
    frozen, after_main = _freeze_counts(
        "import foggame.cli",
        "import contextlib, io\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    foggame.cli.main(['gen', '--kind', 'path', '--n', '3'])",
    )
    assert frozen > 0
    assert after_main <= frozen
