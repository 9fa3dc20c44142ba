"""The public records: their repr, equality and hashing, the frozen guard,
construction by position and by keyword, argument errors, validation on
construction, pattern matching and signature, and a pickle and copy round
trip.

Equality is by fields for the small value records, by ``_KEY`` for graphs,
specs and rates files, and by identity for trees, matrices, unit-response
bases and operators. Every record is frozen but the run report.
"""

import copy
import inspect
import math
import pickle
from types import MappingProxyType
from typing import NamedTuple

import pytest

from arbx import (
    ArbitrageWitness,
    BadParamsError,
    BasisAssignment,
    BasisSpec,
    CheckResult,
    EpsilonBasis,
    FundamentalCycle,
    LengthMismatchError,
    LogRateMatrix,
    MarketGraph,
    NotABasisError,
    PairViolation,
    PerturbationOperator,
    PerturbationVector,
    PriceVector,
    RateMatrix,
    SpanningTree,
)
from arbx.io import RatesFile, RunReport

G = MarketGraph(2, frozenset({(1, 2)}))
G_TEXT = "MarketGraph(n=2, edges=frozenset({(1, 2)}))"
SPEC = BasisSpec(G, ((1, 2),))
SPEC_TEXT = f"BasisSpec(graph={G_TEXT}, entries=((1, 2),))"
RATES = RateMatrix(G, [[1.0, 2.0], [0.5, 1.0]])
LOGS = LogRateMatrix(G, [[0.0, 0.5], [-0.5, 0.0]])
WITNESS = ArbitrageWitness((1, 2, 1), 0.5, 1.5)
WITNESS_TEXT = "ArbitrageWitness(cycle=(1, 2, 1), log_gain=0.5, multiplicative_gain=1.5)"


class Case(NamedTuple):
    cls: type
    fields: tuple  # the record's fields, in order
    values: tuple  # the constructor's arguments, in order
    text: str  # the repr of cls(*values)
    eq: str  # "fields", "key" or "identity"
    other: tuple | None = None  # arguments of an unequal record
    bad: tuple | None = None  # arguments that validation refuses
    error: type = BadParamsError
    params: tuple | None = None  # the constructor's parameters, if not the fields

    def make(self):
        return self.cls(*self.values)


CASES = [
    Case(MarketGraph, ("n", "edges"), (2, frozenset({(1, 2)})), G_TEXT, "key",
         other=(2, frozenset({(1, 1), (1, 2)})), bad=(2, frozenset({(2, 1)}))),
    Case(SpanningTree, ("root", "parent", "tree_edges"), (1, {2: 1}, ((1, 2),)), "SpanningTree(root=1, parent=mappingproxy({2: 1}), tree_edges=((1, 2),))",
         "identity"),
    Case(FundamentalCycle, ("chord", "cycle"), ((1, 3), (1, 3, 2, 1)), "FundamentalCycle(chord=(1, 3), cycle=(1, 3, 2, 1))", "fields",
         other=((1, 3), (1, 3, 4, 1))),
    Case(RateMatrix, ("graph", "values"), (G, [[1.0, 2.0], [0.5, 1.0]]), f"RateMatrix(graph={G_TEXT})", "identity",
         bad=(G, [[1.0, -2.0], [0.5, 1.0]]), params=("graph", "entries")),
    Case(LogRateMatrix, ("graph", "values"), (G, [[0.0, 0.5], [-0.5, 0.0]]), f"LogRateMatrix(graph={G_TEXT})", "identity",
         bad=(G, [[0.0, math.nan], [-0.5, 0.0]]), params=("graph", "entries")),
    Case(PairViolation, ("pair", "residual"), ((1, 2), 0.25), "PairViolation(pair=(1, 2), residual=0.25)", "fields",
         other=((1, 2), 0.5)),
    Case(ArbitrageWitness, ("cycle", "log_gain", "multiplicative_gain"), ((1, 2, 1), 0.5, 1.5), WITNESS_TEXT, "fields", other=((1, 2, 1), 0.5, 2.0)),
    Case(CheckResult, ("ok", "witness", "cycles_checked", "max_abs_log_gain"), (False, WITNESS, 3, 0.5),
         f"CheckResult(ok=False, witness={WITNESS_TEXT}, cycles_checked=3, max_abs_log_gain=0.5)", "fields",
         other=(False, WITNESS, 3, 0.25)),
    Case(BasisSpec, ("graph", "entries"), (G, ((1, 2),)), SPEC_TEXT, "key", other=(G, ((2, 1),)), bad=(G, ((1, 2, 3),))),
    Case(BasisAssignment, ("spec", "values"), (SPEC, (0.5,)), f"BasisAssignment(spec={SPEC_TEXT}, values=(0.5,))", "fields",
         other=(SPEC, (0.25,)), bad=(SPEC, (0.5, 1.0)), error=LengthMismatchError),
    Case(EpsilonBasis, ("spec", "matrices"), (SPEC, (LOGS,)), f"EpsilonBasis(spec={SPEC_TEXT}, matrices=(LogRateMatrix(graph={G_TEXT}),))",
         "identity"),
    Case(PriceVector, ("reference", "prices"), (1, (0.0, 0.5)), "PriceVector(reference=1, prices=(0.0, 0.5))", "fields",
         other=(1, (0.0, 0.25)), bad=(1, (0.5, 0.0))),
    Case(PerturbationVector, ("spec", "deltas"), (SPEC, (0.25,)), f"PerturbationVector(spec={SPEC_TEXT}, deltas=(0.25,))", "fields",
         other=(SPEC, (0.5,)), bad=(SPEC, ()), error=LengthMismatchError),
    Case(PerturbationOperator, ("spec",), (SPEC,), f"PerturbationOperator(spec={SPEC_TEXT})", "identity",
         bad=(BasisSpec(G, ()),), error=NotABasisError),
    Case(RatesFile, ("matrix", "labels", "filled"), (RATES, ("1", "2"), ()), f"RatesFile(matrix=RateMatrix(graph={G_TEXT}), labels=('1', '2'), filled=())",
         "key", other=(RATES, ("a", "b"), ())),
    Case(RunReport, ("command", "verdict", "witness", "metrics", "inputs", "labels", "data"), ("check", "ok", None, {"n": 2}, {}, ("1", "2"), {}),
         "RunReport(command='check', verdict='ok', witness=None, metrics={'n': 2}, inputs={}, labels=('1', '2'), data={})",
         "fields", other=("check", "ok", None, {"n": 3}, {}, ("1", "2"), {}),
         bad=("check", "violation", None, {}, {}, (), {}), error=ValueError),
]

cases = pytest.mark.parametrize("case", CASES, ids=[c.cls.__name__ for c in CASES])


def _params(case: Case) -> tuple:
    return case.params or case.fields


@cases
def test_repr(case):
    assert repr(case.make()) == case.text


@cases
def test_equality_and_hashing(case):
    a, b = case.make(), case.make()
    assert a == a and not a != a and a != case.text
    if case.eq == "identity":
        assert a != b and hash(a) == object.__hash__(a) and len({a, b}) == 2
        return
    other = case.cls(*case.other)
    assert a == b and not a != b and a != other and not a == other
    if case.cls is RunReport:  # mutable, so unhashable
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) and len({a, b, other}) == 2


@cases
def test_fields_are_frozen(case):
    record = case.make()
    for name in case.fields:
        if case.cls is RunReport:
            setattr(record, name, "x")
            assert getattr(record, name) == "x"
            continue
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{name}'$"):
            delattr(record, name)
    assert repr(record) == case.text or case.cls is RunReport


@cases
def test_built_by_position_and_by_keyword(case):
    params = _params(case)
    keywords = dict(zip(params, case.values))
    built = [
        case.cls(*case.values),
        case.cls(**keywords),
        case.cls(**dict(reversed(keywords.items()))),
        case.cls(case.values[0], **dict(list(keywords.items())[1:])),
    ]
    for record in built:
        assert type(record) is case.cls and repr(record) == case.text
        assert pickle.dumps(record) == pickle.dumps(built[0])
        if case.eq != "identity":
            assert record == built[0]


@cases
def test_a_missing_extra_or_repeated_argument_is_a_type_error(case):
    params, values = _params(case), case.values
    calls = [
        (values[:-1], {}),  # missing
        ((), dict(zip(params[1:], values[1:]))),  # missing by keyword
        ((*values, values[-1]), {}),  # extra
        (values, {"no_such_field": 1}),  # unknown keyword
        (values, {params[0]: values[0]}),  # repeated
    ]
    for args, kwargs in calls:
        with pytest.raises(TypeError):
            case.cls(*args, **kwargs)


@pytest.mark.parametrize("case", [c for c in CASES if c.bad], ids=[c.cls.__name__ for c in CASES if c.bad])
def test_validation_on_construction(case):
    with pytest.raises(case.error):
        case.cls(*case.bad)
    with pytest.raises(case.error):
        case.cls(**dict(zip(_params(case), case.bad)))


def test_conversions_on_construction():
    assert BasisAssignment(SPEC, [1]).values == (1.0,)
    assert PerturbationVector(SPEC, [1]).deltas == (1.0,)
    assert PriceVector(1, [0, 1]).prices == (0.0, 1.0)
    parent = {2: 1}
    tree = SpanningTree(1, parent, ((1, 2),))
    parent[3] = 2
    assert type(tree.parent) is MappingProxyType and dict(tree.parent) == {2: 1}
    with pytest.raises(ValueError, match="metric n must be non-negative"):
        RunReport("check", "ok", None, {"n": -1}, {}, (), {})


@cases
def test_match_args_and_signature(case):
    assert case.cls.__match_args__ == case.fields
    parameters = inspect.signature(case.cls).parameters
    assert tuple(parameters) == _params(case)
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD and p.default is p.empty for p in parameters.values())
    record, cls = case.make(), case.cls
    match record:
        case cls(first):
            assert first is getattr(record, case.fields[0])
        case _:
            pytest.fail("no match")


@cases
def test_pickle_and_copy_round_trip(case):
    record = case.make()
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record), copy.deepcopy(record)):
        assert type(twin) is case.cls and repr(twin) == case.text
        if case.eq != "identity":
            assert twin == record
        if case.cls is not RunReport:
            with pytest.raises(AttributeError, match="cannot assign"):
                setattr(twin, case.fields[0], None)
