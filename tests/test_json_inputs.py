"""Graph, basis and perturbation files read in C passes against json.loads.

A file laid out as the writers lay it out is read by ``io._members``; any
other goes to json.loads. Both paths must give the same graph, basis or
perturbation, values bit for bit, or the same error type and message. The
reference path here is the loader with ``_members`` made to refuse every
file. The same goes for the array-built pieces that serve them: the
adjacency of ``graph._csr``, the quote order of ``save_rates`` and the loop
placement of ``save_graph``.
"""

import json
import random
import struct
import warnings
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from arbx import BasisAssignment, PerturbationVector, canonical_basis, complete, generate_graph, new_graph
from arbx import io as arbx_io
from arbx.cli import main
from arbx.errors import ArbxError
from arbx.exchange import exp_of
from arbx.graph import MarketGraph, _csr
from arbx.io import (
    _basis_of,
    _graph_of,
    _perturbation_of,
    load_basis,
    load_graph,
    load_perturbation,
    rate_rows,
    save_graph,
    save_rates,
)
from helpers import reference_csr, reference_graph_text, reference_rate_rows, reference_rates_text
from test_cli_fuzz import graph_basis_delta

DATA = Path(__file__).parent / "data"
K3 = new_graph(3, [(1, 2), (2, 3), (1, 3)])


def _refuse(data, *keysets):
    raise ValueError("every file to json.loads")


def _outcome(read, data, *args):
    # no warning may escape a reader, whatever the numpy version
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return read("f.json", data, *args)
        except (ArbxError, OverflowError) as exc:
            return type(exc), str(exc)


def _both(read, data, *args):
    """The C-pass outcome, checked against the json.loads one."""
    fast = _outcome(read, data, *args)
    with mock.patch.object(arbx_io, "_members", _refuse):
        slow = _outcome(read, data, *args)
    assert _same(fast, slow), (data[:200], fast, slow)
    return fast


def _bits(values) -> bytes:
    return struct.pack(f"{len(values)}d", *values)


def _same(a, b) -> bool:
    if isinstance(a, tuple) or isinstance(b, tuple):
        return a == b
    if isinstance(a, MarketGraph):
        return a == b and a.simple_edges == b.simple_edges and a.loops == b.loops
    if isinstance(a, BasisAssignment):
        return a.spec == b.spec and _bits(a.values) == _bits(b.values)
    assert isinstance(a, PerturbationVector)
    return a.spec == b.spec and _bits(a.deltas) == _bits(b.deltas)


def _graph(data):
    return _both(_graph_of, data)


def _basis(data, graph=K3, multiplicative=False):
    return _both(_basis_of, data, graph, multiplicative)


def _delta(data, graph=K3):
    return _both(_perturbation_of, data, graph)


def _gen(tmp_path, *argv):
    out = tmp_path / "g.json"
    with redirect_stdout(StringIO()):
        assert main(["gen", *argv, "--seed", "3", "--out", str(out)]) == 0
    return out.read_bytes()


# --- the files of tests/data, of gen and of one-line re-dumps


def test_data_files():
    k3 = _graph((DATA / "k3.json").read_bytes())
    assert k3 == K3
    assert isinstance(_graph((DATA / "k4.json").read_bytes()), MarketGraph)
    mult = _basis((DATA / "k3_basis_mult.json").read_bytes(), k3, True)
    assert isinstance(mult, BasisAssignment)


@pytest.mark.parametrize(
    "argv",
    [("--kind", "complete", "--n", "9"), ("--kind", "tree", "--n", "40"),
     ("--kind", "gnp", "--n", "30", "--p", "0.2"), ("--kind", "pa", "--n", "60", "--m", "3"),
     ("--kind", "tree", "--n", "1")],
)
def test_gen_outputs_and_redumps(tmp_path, argv):
    data = _gen(tmp_path, *argv)
    g = _graph(data)
    assert isinstance(g, MarketGraph)
    doc = json.loads(data)
    for text in (json.dumps(doc), json.dumps({"edges": doc["edges"], "n": doc["n"]}), json.dumps(doc, indent=4)):
        assert _graph(text.encode()) == g
    entries = [list(e) for e in canonical_basis(g).entries]
    values = [0.01 * k - 0.3 for k in range(len(entries))]
    for basis in ({"entries": entries, "values": values}, {"values": values, "entries": entries}):
        for text in (json.dumps(basis), arbx_io._json_text(basis)):
            assert _basis(text.encode(), g).values == tuple(values)
    inners = ({"entries": entries}, {"entries": entries, "values": values}, {"values": values, "entries": entries})
    for inner in inners:
        for delta in ({"basis": inner, "deltas": values}, {"deltas": values, "basis": inner}):
            for text in (json.dumps(delta), arbx_io._json_text(delta)):
                assert _delta(text.encode(), g).deltas == tuple(values)


def test_tab_indented_and_other_layouts_take_json_loads(tmp_path):
    data = _gen(tmp_path, "--kind", "pa", "--n", "30", "--m", "2")
    doc = json.loads(data)
    for text in (
        json.dumps(doc, indent="\t"),
        json.dumps(doc).replace(" ", "\r\n"),
        "﻿" + json.dumps(doc),
        json.dumps({"n": doc["n"], "edges": doc["edges"], "note": "x"}),
        json.dumps(doc).replace("[[", "[[0", 1),
    ):
        with pytest.raises(ValueError):
            arbx_io._members(text.encode(), ("n", "edges"))
        _graph(text.encode())


# --- malformed and edge-case files: same object or same error


@pytest.mark.parametrize(
    "edges",
    ["[[1, 2], [2, 3]]", "[[1 2, 3]]", "[[1, 2 3]]", "[[ , 3]]", "[[1, ]]", "[[01, 2]]", "[[1, 02]]", "[[0, 2]]",
     "[[00, 2]]", "[[1, 2],]", "[[1, 2]", "[[1, 2]]]", "[[1, 2, 3]]", "[[1]]", "[[]]", "[]", "[ ]", "[\n]",
     "[[-1, 2]]", "[[1, 2.0]]", "[[1e0, 2]]", "[[2, 1]]", "[[1, 1]]", "[[1, 2], [1, 2]]", "[[2, 3], [1, 2]]",
     "[[1, 4]]", "[[1, 9223372036854775807]]", "[[1, 9223372036854775808]]", "[[1, 99999999999999999999]]",
     "[[1, 18446744073709551617]]", "[[1, 999999999999999999]]", "[[1,2],[2,3]]", "[ [ 1 , 2 ] ]", "[[1, 2] [2, 3]]",
     '[[1, "2"]]', "[[true, 2]]", "[[null, 2]]", "[{}]", "[[1, 2], {}]"],
)
def test_graph_bodies(edges):
    for text in (f'{{"n": 3, "edges": {edges}}}', f'{{"edges": {edges}, "n": 3}}\n'):
        _graph(text.encode())


@pytest.mark.parametrize(
    "n", ["3", "03", "0", "-3", "3.0", "3e0", "true", '"3"', "1000000000000000000", "999999999999999999", "[3]"]
)
def test_graph_vertex_counts(n):
    _graph(f'{{"n": {n}, "edges": [[1, 2], [2, 3]]}}'.encode())


@pytest.mark.parametrize(
    "values",
    ["[0.5, -0.25]", "[1, 2]", "[-0, 0]", "[1e-300, 5e-324]", "[1e16, -0.0]", "[1e400, 0]", "[NaN, 0]",
     "[Infinity, 0]", "[1., 2]", "[.5, 2]", "[+1, 2]", "[01, 2]", "[1e, 2]", "[1, 2,]", "[1 2]", "[true, 1]",
     '["1", 2]', "[1]", "[1, 2, 3]", "[]", "{}", "null", "[1" + "0" * 400 + ", 2]", "[-1e308, 1e308]"],
)
def test_number_lists(values):
    for pairs in ("[[1, 2], [1, 3]]", "[[1, 2], [9, 9]]", "[[1, 2]]"):
        _basis(f'{{"entries": {pairs}, "values": {values}}}'.encode())
        _basis(f'{{"values": {values}, "entries": {pairs}}}'.encode(), multiplicative=True)
        _delta(f'{{"basis": {{"entries": {pairs}}}, "deltas": {values}}}'.encode())
        _delta(f'{{"deltas": {values}, "basis": {{"values": {values}, "entries": {pairs}}}}}'.encode())


def test_values_bit_for_bit():
    text = b'{"entries": [[1, 2], [1, 3]], "values": [1e-300, 5e-324]}'
    assert _bits(_basis(text).values) == _bits([1e-300, 5e-324])
    text = b'{"basis": {"entries": [[1, 2], [1, 3]]}, "deltas": [1e16, -0.0]}'
    assert _bits(_delta(text).deltas) == _bits([1e16, -0.0])
    # a JSON integer is an int: -0 is 0.0, not -0.0
    text = b'{"basis": {"entries": [[1, 2], [1, 3]]}, "deltas": [-0, 0.1]}'
    assert _bits(_delta(text).deltas) == _bits([0.0, 0.1])


@given(files=graph_basis_delta())
def test_cli_fuzz_files(files):
    graph_text, basis_text, delta_text = (f.encode() for f in files)
    g = _graph(graph_text)
    if isinstance(g, MarketGraph):
        _basis(basis_text, g)
        _delta(delta_text, g)


def _canonical_files():
    g = generate_graph("pa", 12, m=2, seed=5)
    entries = [list(e) for e in canonical_basis(g).entries]
    values = [0.125 * k - 0.5 for k in range(len(entries))]
    texts = [
        arbx_io._json_text({"n": g.n, "edges": [list(e) for e in g.simple_edges]}),
        json.dumps({"n": g.n, "edges": [list(e) for e in g.simple_edges]}),
        arbx_io._json_text({"entries": entries, "values": values}),
        json.dumps({"entries": entries, "values": values}),
        json.dumps({"basis": {"entries": entries}, "deltas": values}),
        arbx_io._json_text({"basis": {"entries": entries, "values": values}, "deltas": values}),
    ]
    return g, [t.encode() for t in texts]


G12, CANONICAL = _canonical_files()
EDIT_BYTES = st.sampled_from(b'0123456789[]{},: \n\t"-.eEnx\xff')


@given(
    k=st.integers(0, len(CANONICAL) - 1),
    at=st.floats(0, 1, exclude_max=True),
    edit=st.sampled_from(["flip", "insert", "delete"]),
    byte=EDIT_BYTES,
)
def test_one_byte_edits(k, at, edit, byte):
    data = CANONICAL[k]
    i = int(at * len(data))
    new = bytes([byte])
    head, tail = data[:i], data[i + 1 :] if edit != "insert" else data[i:]
    data = head + (b"" if edit == "delete" else new) + tail
    for read in (_graph, lambda d: _basis(d, G12), lambda d: _delta(d, G12)):
        read(data)


# --- the C-pass path is taken: json.loads is never called


def test_fast_path_is_taken(tmp_path):
    g = generate_graph("pa", 200, m=3, seed=2)
    save_graph(tmp_path / "saved.json", g)
    (tmp_path / "bench.json").write_text(json.dumps({"n": g.n, "edges": [list(e) for e in g.simple_edges]}))
    entries = [list(e) for e in canonical_basis(g).entries]
    values = [0.001 * k for k in range(len(entries))]
    (tmp_path / "basis.json").write_text(json.dumps({"entries": entries, "values": values}))
    (tmp_path / "delta.json").write_text(json.dumps({"basis": {"entries": entries}, "deltas": values}))
    with mock.patch.object(arbx_io.json, "loads", side_effect=AssertionError("json.loads")):
        assert load_graph(tmp_path / "saved.json") == g
        assert load_graph(tmp_path / "bench.json") == g
        assert load_basis(tmp_path / "basis.json", g).values == tuple(values)
        assert load_perturbation(tmp_path / "delta.json", g).deltas == tuple(values)


# --- the adjacency, the quote order and the graph file from arrays


def _reference_csr(n, a, b):
    # every step sorted by (source, target) key, as `_csr` orders them: by a lexsort up to 2^16 goods, an argsort above
    src, dst = np.concatenate([a, b]), np.concatenate([b, a])
    pair = np.argsort(src.astype(np.int64) * n + dst)
    indptr = np.zeros(n + 1, np.intp)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[pair], pair


def _grid(w, h):
    cell = lambda x, y: y * w + x + 1  # noqa: E731
    edges = [(cell(x, y), cell(x + 1, y)) for y in range(h) for x in range(w - 1)]
    return new_graph(w * h, edges + [(cell(x, y), cell(x, y + 1)) for y in range(h - 1) for x in range(w)])


CSR_GRAPHS = {
    "pa": generate_graph("pa", 3000, m=3, seed=1),
    "K250": generate_graph("complete", 250),
    "ring": new_graph(500, [(v, v % 500 + 1) for v in range(1, 501)]),
    "grid": _grid(30, 20),
    "loops": new_graph(6, [(1, 2), (2, 2), (2, 3), (4, 4), (3, 6), (1, 1), (5, 6), (4, 5)]),
    "single": new_graph(1, []),
    "path70k": new_graph(70_000, [(v, v + 1) for v in range(1, 70_000)]),  # past the radix sort's 2^16 goods
}


@pytest.mark.parametrize("name", sorted(CSR_GRAPHS))
def test_csr_matches_the_sorted_keys(name):
    g = CSR_GRAPHS[name]
    want = _reference_csr(g.n, g._lo, g._hi)
    assert all(np.array_equal(x, y) and x.dtype == y.dtype for x, y in zip(_csr(g.n, g._lo, g._hi), want))
    rng = random.Random(name)
    lists = [(g._lo[::-1], g._hi[::-1]), (g._hi, g._lo), (g._lo[::2], g._hi[::2])]
    for _ in range(3):  # entry lists in any order and orientation, as a basis gives them
        k = rng.sample(range(g._lo.size), min(g._lo.size, g.n - 1))
        flip = np.array([rng.random() < 0.5 for _ in k], bool)
        lists.append((np.where(flip, g._hi[k], g._lo[k]), np.where(flip, g._lo[k], g._hi[k])))
    for a, b in lists:
        assert all(np.array_equal(x, y) for x, y in zip(_csr(g.n, a, b), _reference_csr(g.n, a, b)))


@pytest.mark.parametrize("n", [1 << 16, (1 << 16) + 1])
def test_csr_on_either_side_of_the_radix_sorts_last_good(n):
    # 2^16 goods still fit the 16-bit radix passes; one more takes the int64
    # keys, where good 65,537 would wrap to good 1 as a uint16
    g = new_graph(n, [(v, v + 1) for v in range(1, n)])
    rng = np.random.default_rng(n)
    k, flip = rng.permutation(n - 1), rng.random(n - 1) < 0.5
    entries = np.where(flip, g._hi[k], g._lo[k]), np.where(flip, g._lo[k], g._hi[k])
    for a, b in ((g._lo, g._hi), entries):  # the graph's own pairs, then a basis's entry list
        got, want = _csr(n, a, b), reference_csr(n, a, b)
        assert all(x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(got, want))


@pytest.mark.parametrize("name", sorted(set(CSR_GRAPHS) - {"pa", "path70k"}))  # dense references: n <= 600
def test_written_files_and_rows_keep_their_order(tmp_path, name):
    g = CSR_GRAPHS[name]
    values = np.random.default_rng(7).uniform(-1, 1, g.n - 1)
    rates = exp_of(complete(BasisAssignment(canonical_basis(g), tuple(values))))
    save_rates(tmp_path / "r.csv", rates)
    assert (tmp_path / "r.csv").read_text() == reference_rates_text(rates)
    labels = [f"g{v}" for v in range(1, g.n + 1)]
    assert rate_rows(rates.values, g, labels) == reference_rate_rows(rates.entries, g, labels)
    save_graph(tmp_path / "g.json", g)
    assert (tmp_path / "g.json").read_text() == reference_graph_text(g)
