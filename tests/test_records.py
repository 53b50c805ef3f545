"""The record contract: immutable named tuples with pinned reprs and payloads.

Every result and input record of the package (graphs, configs, profiles,
states, reports) is a typing.NamedTuple.  Reprs, hashes, field order and
validation messages are part of what callers and the canonical JSON see,
so they are pinned here.  The package's public names load lazily, and the
export table is checked against what actually resolves.
"""

import importlib
import math

import pytest

import foggame
from foggame.bounds import BoundCheck, type2_poa_bound
from foggame.costs import CostReport
from foggame.domination import DominationDiagnostic
from foggame.equilibrium import (
    DeviationWitness,
    DynamicsOutcome,
    DynamicsTrace,
    Move,
    PoAReport,
    Scope,
    empirical_poa,
)
from foggame.graph import Graph, new_graph
from foggame.model import (
    GameConfig,
    GameState,
    JobCostType,
    Level1Profile,
    Level2Profile,
    TransitPolicy,
)
from foggame.serialize import to_jsonable
from foggame.verify import CheckResult


def _samples():
    graph = Graph(2, frozenset({(0, 1)}))
    level1 = Level1Profile(((1,), ()))
    level2 = Level2Profile(2, ((0,), (1,)))
    state = GameState(level1, level2)
    move = Move(Scope.LEVEL2, 0, frozenset({0}), frozenset({1}), 3.0, 2.5)
    return [
        graph,
        GameConfig(),
        level1,
        level2,
        state,
        CostReport((1.0, 2.0), (3.0,), 3.0, 3.0, 1),
        DeviationWitness(Scope.LEVEL1, 1, 4.0, frozenset({0}), 3.0),
        move,
        DynamicsTrace((move,), DynamicsOutcome.CONVERGED, state, 1),
        PoAReport(6.5, level2, 6.5, level2, 1.0, 1),
        DominationDiagnostic(frozenset({1}), 4.5, True, 1, 1, 1.5, True, True, ""),
        BoundCheck("demo", 1.0, 2.0, "<=", True, ""),
        type2_poa_bound(1.5),
        CheckResult("demo", True, "ok"),
    ]


SAMPLES = _samples()


def test_every_record_class_is_sampled():
    assert len({type(r) for r in SAMPLES}) == 14


def test_reprs_keep_the_dataclass_format():
    assert repr(GameConfig()) == (
        "GameConfig(alpha=1.0, beta=1.0, job_cost_type=<JobCostType.TYPE_II: 'type2'>, "
        "rcs_constant=1.0, transit_policy=<TransitPolicy.FULL_COMBINED: 'full_combined'>)"
    )
    assert repr(Graph(2, frozenset({(0, 1)}))) == "Graph(n=2, edges=frozenset({(0, 1)}))"
    report = empirical_poa(new_graph(3, [(0, 1), (1, 2)]), 1, GameConfig(beta=1.5))
    assert repr(report) == (
        "PoAReport(optimum_cost=6.5, optimum_profile=Level2Profile(n1=3, "
        "strategies=(frozenset({1}),)), worst_ne_cost=6.5, worst_ne_profile="
        "Level2Profile(n1=3, strategies=(frozenset({1}),)), poa=1.0, ne_count=1)"
    )
    state = GameState(Level1Profile([[1], []]), Level2Profile(2, [[0], [1]]))
    assert repr(state) == (
        "GameState(level1=Level1Profile(strategies=(frozenset({1}), frozenset())), "
        "level2=Level2Profile(n1=2, strategies=(frozenset({0}), frozenset({1}))), "
        "allow_unequal=False)"
    )
    assert repr(type2_poa_bound(1.5)) == "Type2PoAVerdict(kind='exact', value=1.0, threshold=None)"


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None  # no instance __dict__ on a validating subclass either


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
def test_equal_records_hash_equal(record):
    copy = type(record)(*record)
    assert copy == record and copy is not record
    assert hash(copy) == hash(record)
    # The hash a frozen dataclass gave: the hash of its field values in order.
    assert hash(record) == hash(tuple(getattr(record, f) for f in record._fields))


def test_records_compare_equal_to_plain_tuples_of_their_values():
    assert GameConfig() == (1.0, 1.0, JobCostType.TYPE_II, 1.0, TransitPolicy.FULL_COMBINED)
    assert Graph(2, frozenset()) == (2, frozenset())


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
def test_to_jsonable_gives_the_fields_in_order(record):
    out = to_jsonable(record)
    assert isinstance(out, dict)
    assert list(out) == list(record._fields)


def test_to_jsonable_nests_records():
    state = GameState(Graph(2, frozenset({(0, 1)})), Level2Profile(2, [[1], []]))
    assert to_jsonable(state) == {
        "level1": {"n": 2, "edges": [[0, 1]]},
        "level2": {"n1": 2, "strategies": [[1], []]},
        "allow_unequal": False,
    }
    assert to_jsonable(GameConfig(beta=2.0)) == {
        "alpha": 1.0,
        "beta": 2.0,
        "job_cost_type": "type2",
        "rcs_constant": 1.0,
        "transit_policy": "full_combined",
    }


def test_profiles_normalize_their_strategies():
    assert Level1Profile([[1], []]).strategies == (frozenset({1}), frozenset())
    assert Level2Profile(2, iter([(0, 1)])).strategies == (frozenset({0, 1}),)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Graph(-1, frozenset()), "vertex count must be non-negative, got -1"),
        (lambda: Graph(2, frozenset({(1, 1)})), "self-loop (1,1) is not allowed"),
        (lambda: Graph(2, frozenset({(1, 0)})), "edge (1,0) is not normalized, expected u < v"),
        (lambda: Graph(2, frozenset({(0, 2)})), "edge (0,2) has an endpoint outside [0,2)"),
        (lambda: GameConfig(beta=math.nan), "beta must be finite, got nan"),
        (lambda: GameConfig(alpha=-1.0), "alpha must be non-negative, got -1.0"),
        (lambda: GameConfig(beta=-1.0), "beta must be non-negative, got -1.0"),
        (lambda: GameConfig(rcs_constant=0.0), "rcs_constant must be positive, got 0.0"),
        (lambda: Level1Profile([[0]]), "fog player 0 cannot buy a link to itself"),
        (lambda: Level1Profile([[2], []]), "fog player 0 strategy member 2 outside [0,2)"),
        (lambda: Level2Profile(-1, []), "n1 must be non-negative, got -1"),
        (lambda: Level2Profile(2, [[], [2]]), "job 1 strategy member 2 outside [0,2)"),
        (
            lambda: GameState(Graph(3, frozenset()), Level2Profile(2, [[], []])),
            "level-2 profile addresses 2 fog vertices, level 1 has 3",
        ),
        (
            lambda: GameState(Graph(2, frozenset()), Level2Profile(2, [[]])),
            "player counts differ (n1=2, n2=1); "
            'pass allow_unequal=True (scenario key "allow_unequal": true) to permit this',
        ),
    ],
)
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_make_and_replace_run_the_checks():
    assert GameConfig()._replace(beta=2.0) == GameConfig(beta=2.0)
    with pytest.raises(ValueError, match="beta must be non-negative"):
        GameConfig()._replace(beta=-1.0)
    with pytest.raises(ValueError, match="vertex count must be non-negative"):
        Graph._make((-1, frozenset()))
    replaced = Level2Profile(2, [[0]])._replace(strategies=[[1]])
    assert replaced.strategies == (frozenset({1}),)
    state = GameState(Graph(1, frozenset()), Level2Profile(1, [[]]))
    with pytest.raises(ValueError, match="player counts differ"):
        state._replace(level2=Level2Profile(1, [[], []]))


def test_game_state_accepts_keywords_and_unequal_counts():
    state = GameState(
        level1=Graph(2, frozenset()), level2=Level2Profile(2, [[]]), allow_unequal=True
    )
    assert (state.n1, state.n2, state.profile_mode) == (2, 1, False)


def test_every_exported_name_resolves():
    names = set(foggame._EXPORTS)
    assert set(foggame.__all__) == names
    listed = set(dir(foggame))
    for name in sorted(names):
        module = importlib.import_module(f"foggame.{foggame._EXPORTS[name]}")
        assert getattr(foggame, name) is getattr(module, name), name
        assert name in listed, name


def test_unknown_package_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        foggame.no_such_name  # noqa: B018
    assert not hasattr(foggame, "_no_such_private")
