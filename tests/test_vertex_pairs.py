"""The one reader of vertex pairs and the one vertex check.

``new_graph`` reads its items as arrays; the per-item loop it replaced is
kept in ``helpers.reference_new_graph`` and must give the same graph, or the
same error type and message, for any list of items. Bases, matrix keys,
walks, single-vertex arguments and the JSON files follow the same rule: a
vertex is an integer, not a bool, and nothing is rounded to one.
"""

import json
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arbx import (
    BasisSpec,
    LogRateMatrix,
    MarketGraph,
    PriceVector,
    RateMatrix,
    complete,
    cycle_log_gain,
    generate_graph,
    is_basis,
    new_graph,
    price_vector,
    row_basis,
)
from arbx.errors import (
    BadParamsError,
    DuplicateEdgeError,
    GraphIndexError,
    NotAnEdgeError,
    NotAWalkError,
    ParseError,
)
from arbx.io import load_basis, load_graph
from helpers import random_assignment, reference_new_graph

K3 = new_graph(3, [(1, 2), (2, 3), (1, 3)])
E3 = complete(random_assignment(K3, 3))


def _outcome(build):
    try:
        g = build()
    except (BadParamsError, GraphIndexError, DuplicateEdgeError) as exc:
        return type(exc), str(exc)
    return g, g.simple_edges, g.loops


# --- new_graph against the per-item reference

BIG = 2**63


@st.composite
def items(draw):
    n = draw(st.integers(1, 6))
    # Python numbers: the reference sorts a set, and numpy scalars do not
    # compare with integers beyond int64
    number = st.one_of(
        st.integers(-1, n + 2),
        st.booleans(),
        st.floats(allow_nan=True),
        st.sampled_from([2.0, 1.5, BIG, BIG + 7, -BIG - 1, -(10**30)]),
    )
    numpy_number = st.one_of(
        st.integers(-1, n + 2).map(np.int64), st.integers(1, n).map(np.int32), st.just(np.True_)
    )
    vertex = st.one_of(number, numpy_number, st.text(max_size=2), st.none())
    pair = st.one_of(
        st.tuples(vertex, vertex),
        st.lists(vertex, min_size=2, max_size=2),
        st.frozensets(number, min_size=1, max_size=2),
        st.sets(number, min_size=1, max_size=2),
        st.tuples(vertex, vertex, vertex),
    )
    # mostly good pairs, so that later faults and repeats are reached
    good = st.tuples(st.integers(1, n), st.integers(1, n))
    out = draw(st.lists(st.one_of(good, good, good, pair), max_size=12))
    # repeats in both orientations
    for k in draw(st.lists(st.integers(0, max(len(out) - 1, 0)), max_size=4)):
        if out and isinstance(out[k], tuple):
            out.insert(draw(st.integers(0, len(out))), out[k][::-1])
    return n, out


@settings(max_examples=400, deadline=None)
@given(case=items(), strict=st.booleans())
def test_new_graph_matches_the_reference_loop(case, strict):
    n, edges = case
    got = _outcome(lambda: new_graph(n, edges, strict=strict))
    want = _outcome(lambda: reference_new_graph(n, edges, strict=strict))
    assert got == want


@pytest.mark.parametrize(
    "edges, strict, error, message",
    [
        # an earlier range fault ahead of a later non-integer, and the reverse
        ([(1, 2), (1, 9), (1.5, 2)], False, GraphIndexError, "edge (1, 9) out of range 1..4"),
        ([(1, 2), (1.5, 2), (1, 9)], False, BadParamsError, "edge (1.5, 2) has non-integer vertices"),
        ([(1, 10**30), (1.5, 2)], False, GraphIndexError, f"edge (1, {10**30}) out of range 1..4"),
        ([(True, 2), (1, 10**30)], False, BadParamsError, "edge (True, 2) has non-integer vertices"),
        # a strict repeat is a fault in its place; without strict it is none
        ([(1, 2), (2, 1), (1, 9)], True, DuplicateEdgeError, "duplicate edge (1, 2)"),
        ([(1, 2), (1, 9), (2, 1)], True, GraphIndexError, "edge (1, 9) out of range 1..4"),
        ([(1, 2), (2, 1), (1, 2, 3)], True, DuplicateEdgeError, "duplicate edge (1, 2)"),
        ([(1, 2), (2, 1), (1, 2, 3)], False, BadParamsError, "edge (1, 2, 3) is not a vertex pair"),
        ([{9, 1}], False, GraphIndexError, "edge (1, 9) out of range 1..4"),
    ],
)
def test_first_faulty_item_decides(edges, strict, error, message):
    with pytest.raises(error, match=re.escape(message)):
        new_graph(4, edges, strict=strict)
    with pytest.raises(error, match=re.escape(message)):
        reference_new_graph(4, edges, strict=strict)


def test_direct_construction_names_the_item():
    for edges, error, message in [
        ({(1, 2), (1.5, 2)}, BadParamsError, "edge (1.5, 2) has non-integer vertices"),
        ({(1, 2), (True, 3)}, BadParamsError, "edge (True, 3) has non-integer vertices"),
        ({(1, 10**30)}, GraphIndexError, f"edge (1, {10**30}) out of range 1..4"),
    ]:
        with pytest.raises(error, match=re.escape(message)):
            MarketGraph(4, frozenset(edges))


# --- every graph is built from its arrays


def _graphs(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"n": 5, "edges": [[1, 2], [3, 2], [4, 4], [5, 1], [2, 1]]}))
    yield new_graph(5, [(1, 2), (3, 2), {4}, (5, 1)])
    yield load_graph(path)
    for kind, extra in [("complete", {}), ("tree", {}), ("gnp", {"p": 0.5}), ("pa", {"m": 2})]:
        yield generate_graph(kind, 7, seed=3, **extra)


def test_graphs_build_their_edge_set_only_when_read(tmp_path):
    for g in _graphs(tmp_path):
        assert "edges" not in vars(g)
        g.has_edge(1, 2)
        g.neighbors(1)
        copy = pickle.loads(pickle.dumps(g))
        assert "edges" not in vars(g) and "edges" not in vars(copy)
        direct = MarketGraph(g.n, frozenset(g.edges))
        assert "edges" in vars(g)
        assert g == direct == copy and hash(g) == hash(direct) == hash(copy)
        assert g.simple_edges == direct.simple_edges and g.loops == direct.loops
        assert pickle.loads(pickle.dumps(g)) == direct


# --- the JSON files


@pytest.mark.parametrize("item", [[1, 2.5], [True, 2], [1, 2, 3]])
def test_file_pair_that_is_not_a_pair_of_integers(tmp_path, item):
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps({"n": 3, "edges": [[1, 2], item]}))
    with pytest.raises(ParseError, match=re.escape(str(graph))):
        load_graph(graph)
    basis = tmp_path / "b.json"
    basis.write_text(json.dumps({"entries": [[1, 2], item], "values": [0.0, 0.0]}))
    with pytest.raises(ParseError, match=re.escape(str(basis))):
        load_basis(basis, K3)


# --- single vertices


@pytest.mark.parametrize("v", [1.5, True, "1", 0, 4, np.float64(2.0)])
@pytest.mark.parametrize(
    "call",
    [
        lambda v: K3.neighbors(v),
        lambda v: RateMatrix.from_quotes(K3, {}).rate(v, 2),
        lambda v: RateMatrix.from_quotes(K3, {}).rate(2, v),
        lambda v: E3.value(v, 1),
        lambda v: row_basis(K3, v),
        lambda v: price_vector(E3, v),
        lambda v: PriceVector(reference=v, prices=(0.0, 0.0, 0.0)),
    ],
    ids=["neighbors", "rate_i", "rate_j", "value", "row_basis", "price_vector", "PriceVector"],
)
def test_a_vertex_is_an_integer_in_range(call, v):
    with pytest.raises(GraphIndexError, match="out of range 1..3"):
        call(v)


def test_numpy_integers_are_vertices():
    two = np.int64(2)
    assert K3.neighbors(two) == (1, 3)
    assert row_basis(K3, two).entries == ((2, 1), (2, 3))
    assert PriceVector(reference=np.int32(1), prices=(0.0, 1.0)).reference == 1
    assert price_vector(E3, two).reference == 2


# --- pair lookups and walks


@pytest.mark.parametrize("bad", [(True, 2), (1.0, 2), (1, 2, 3), (2,), "12", None, frozenset({1, "a"})])
def test_lookup_keys_follow_the_reader(bad):
    message = re.escape(f"{bad!r} is not an edge")
    with pytest.raises(NotAnEdgeError, match=message):
        is_basis(K3, [bad, (1, 3)])
    for build in (RateMatrix.from_quotes, LogRateMatrix.from_values):
        with pytest.raises(NotAnEdgeError, match=message):
            build(K3, {(1, 3): 1.0, bad: 1.0})


def test_with_entry_and_has_edge_follow_the_reader():
    for i, j in [(True, 2), (1.0, 2), (1, 2.5)]:
        with pytest.raises(NotAnEdgeError, match=re.escape(f"{(i, j)!r} is not an edge")):
            E3.with_entry(i, j, 0.5)
        assert not K3.has_edge(i, j)
    g = new_graph(3, [(1, 2), (2, 2)])
    assert g.has_edge(2, 1) and g.has_edge(2, 2) and not g.has_edge(1, 1)
    assert not g.has_edge(0, 1) and not g.has_edge(1, 10**30) and not g.has_edge(1, 3)
    assert "edges" not in vars(g)


@pytest.mark.parametrize("walk", [(1, 2.7, 1), (True, 2, 1), (1, "2", 1), (1, 2, 3.0, 1)])
def test_walks_are_not_rounded(walk):
    with pytest.raises(NotAWalkError, match="is not an edge"):
        cycle_log_gain(E3, walk)


def test_walk_of_numpy_integers():
    walk = np.array([1, 2, 3, 1])
    assert cycle_log_gain(E3, walk) == cycle_log_gain(E3, (1, 2, 3, 1))
    assert math.isclose(cycle_log_gain(E3, walk), 0.0, abs_tol=1e-12)


# --- basis entries


def test_basis_entries_are_not_rounded():
    with pytest.raises(BadParamsError, match=re.escape("entry (1.9, 2) has non-integer vertices")):
        BasisSpec(K3, ((1.9, 2), (2, 3.7)))
    with pytest.raises(BadParamsError, match=re.escape("entry (1, 2, 3) is not a vertex pair")):
        BasisSpec(K3, ((1, 2, 3),))
    with pytest.raises(BadParamsError, match="non-integer"):
        BasisSpec(K3, ((True, 2), (1, 3)))


def test_basis_entries_are_stored_as_int_tuples():
    spec = BasisSpec(K3, ([np.int64(1), 2], frozenset({3, 1}), (np.int32(2), 2)))
    assert spec.entries == ((1, 2), (1, 3), (2, 2))
    assert all(type(v) is int for entry in spec.entries for v in entry)
    assert spec == BasisSpec(K3, ((1, 2), (1, 3), (2, 2)))
