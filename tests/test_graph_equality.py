"""Graph equality and hashing read n and the sorted edge arrays, a basis
spec's read its graph and its pair array, and a rates file's its labels,
graph, rates and filled entries; a pickled record comes back equal, with
read-only arrays.

They never build the ``edges`` frozenset or a spec's ``entries``, so the
library calls that check two matrices share a graph, or a perturbation and
an operator share a basis, stay O(1) on one and the same record.
"""

import json
import pickle
from pathlib import Path

import numpy as np
import pytest

from arbx import (
    BasisSpec,
    LogRateMatrix,
    MarketGraph,
    PerturbationVector,
    apply_exact,
    build_operator,
    canonical_basis,
    complete,
    decompose,
    exp_of,
    generate_graph,
    new_graph,
    propagate_log,
    propagate_multiplicative_first_order,
)
from arbx.cli import main
from arbx.io import RatesFile, load_rates
from helpers import random_assignment

DATA = Path(__file__).parent / "data"


def _market(seed=1):
    g = generate_graph("pa", 200, m=3, seed=seed)
    spec = canonical_basis(g)
    e = complete(random_assignment(g, seed, scale=0.5))
    d = propagate_log(build_operator(spec), PerturbationVector(spec, [0.001] * spec.size))
    return g, spec, e, d


def test_library_calls_leave_the_edge_set_unbuilt():
    g, spec, e, d = _market()
    apply_exact(e, d)
    propagate_multiplicative_first_order(exp_of(e), d)
    decompose(e, spec)
    assert "edges" not in vars(g)


def test_comparisons_leave_the_edge_set_unbuilt():
    g, h = generate_graph("pa", 50, m=2, seed=4), generate_graph("pa", 50, m=2, seed=4)
    assert g == g and g == h and not g != h and hash(g) == hash(h)
    assert {g: 1}[h] == 1
    assert "edges" not in vars(g) and "edges" not in vars(h)


def test_graphs_that_differ_compare_unequal():
    base = [(1, 2), (2, 3), (3, 4), {2}]
    g = new_graph(4, base)
    assert g == new_graph(4, [(2, 1), {2}, (4, 3), (3, 2)])
    others = [
        new_graph(5, base),  # only n
        new_graph(4, [(1, 2), (2, 3), (2, 4), {2}]),  # one edge moved
        new_graph(4, [(1, 2), (2, 3), (3, 4), (1, 4), {2}]),  # one edge more
        new_graph(4, [(1, 2), (2, 3), (3, 4), {3}]),  # one loop moved
        new_graph(4, [(1, 2), (2, 3), (3, 4)]),  # one loop fewer
        new_graph(4, [(1, 2), (2, 3), (3, 4), (2, 2), (4, 4)]),  # one loop more
    ]
    for h in others:
        assert g != h and not g == h and h != g
        assert g.edges != h.edges or g.n != h.n
    assert len({g, *others}) == 1 + len(others)


def test_equality_agrees_with_the_edge_sets():
    graphs = [generate_graph(kind, 9, seed=s, **kw)
              for kind, kw in [("complete", {}), ("tree", {}), ("gnp", {"p": 0.4}), ("pa", {"m": 2})]
              for s in (1, 2)]
    graphs += [MarketGraph(g.n, frozenset(g.edges)) for g in graphs]
    for a in graphs:
        for b in graphs:
            assert (a == b) == ((a.n, a.edges) == (b.n, b.edges))
            assert a != b or hash(a) == hash(b)


def test_matrices_on_equal_graphs_still_combine():
    g, spec, e, d = _market(2)
    twin = new_graph(g.n, g.edges)
    assert twin is not g and twin == g
    moved = LogRateMatrix._of(twin, np.zeros(twin._edge_count))
    updated, _ = apply_exact(e, moved)
    assert np.array_equal(updated.values, e.values)
    assert not 1 == g and g != (g.n, g.edges)


def test_specs_compare_and_hash_by_their_arrays():
    g = generate_graph("pa", 60, m=3, seed=5)
    spec = canonical_basis(g)
    pairs = spec._pairs.tolist()
    same = [BasisSpec(g, np.array(pairs)), BasisSpec(new_graph(g.n, g.edges), pairs)]
    others = [
        BasisSpec(g, pairs[::-1]),  # the same entries in another order
        BasisSpec(g, [pairs[0][::-1], *pairs[1:]]),  # one entry the other way round
        BasisSpec(g, pairs[:-1]),  # one entry fewer
        BasisSpec(new_graph(g.n, [*g.edges, (1, 1)]), pairs),  # another graph
    ]
    for twin in same:
        assert twin == spec and not twin != spec and hash(twin) == hash(spec)
    for other in others:
        assert other != spec and not other == spec
    assert len({spec, *same, *others}) == 1 + len(others)
    assert all("entries" not in vars(s) for s in (spec, *same, *others))
    assert not spec == pairs and spec != (spec.graph, spec.entries)
    for a in (spec, *same, *others):  # agrees with comparing the public tuples
        for b in (spec, *same, *others):
            assert (a == b) == ((a.graph, a.entries) == (b.graph, b.entries))


# each public tuple built from a record's arrays, by (class, attribute)
PUBLIC_TUPLES = [(MarketGraph, "edges"), (MarketGraph, "simple_edges"), (MarketGraph, "loops"),
                 (BasisSpec, "entries"), (RatesFile, "filled")]


@pytest.fixture
def built(monkeypatch):
    """The public tuples read while the test runs, as "Class.attribute"."""
    reads = []
    for cls, name in PUBLIC_TUPLES:
        original = vars(cls)[name]

        class Spy:
            def __get__(self, obj, owner=None, original=original, name=f"{cls.__name__}.{name}"):
                if obj is not None:
                    reads.append(name)
                return original.__get__(obj, owner)

        monkeypatch.setattr(cls, name, Spy())
    return reads


def test_no_command_but_oracle_builds_a_public_tuple(tmp_path, capsys, built):
    def run(*argv):
        code = main([*map(str, argv), "--format", "json"])
        assert built == [], argv
        return code, json.loads(capsys.readouterr().out)

    graph, out = tmp_path / "graph.json", tmp_path / "rates.csv"
    assert run("gen", "--kind", "pa", "--n", 40, "--m", 3, "--seed", 1, "--out", graph)[0] == 0
    entries = run("basis", "--graph", graph)[1]["data"]["entries"]
    basis, delta = tmp_path / "basis.json", tmp_path / "delta.json"
    basis.write_text(json.dumps({"entries": entries, "values": [0.01 * k for k in range(len(entries))]}))
    delta.write_text(json.dumps({"basis": {"entries": entries}, "deltas": [0.001 * k for k in range(len(entries))]}))
    assert run("complete", "--graph", graph, "--basis", basis, "--out", out)[0] == 0
    assert run("dim", "--graph", graph)[0] == 0
    # a one-sided quote, filled by its reciprocal, and a mispriced chord
    rows = out.read_text().splitlines()
    tree = {frozenset(e) for e in entries}
    chord = next(k for k, row in enumerate(rows[1:], 1) if frozenset(map(int, row.split(",")[:2])) not in tree)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join([*rows[:chord], rows[chord].rpartition(",")[0] + ",7.5", *rows[chord + 2 :]]) + "\n")
    assert run("check", "--rates", out)[0] == 0
    code, doc = run("check", "--rates", bad)
    assert code == 2 and doc["data"]["filled_reciprocals"]
    assert run("price", "--rates", out, "--ref", 1)[0] == 0
    assert run("perturb", "--rates", out, "--delta", delta)[0] == 0
    assert run("perturb", "--rates", out, "--delta", delta, "--exact")[0] == 0
    # the spy sees a read: oracle names its antisymmetry conditions by edge
    main(["oracle", "--rates", str(DATA / "triangle_ok.csv")])
    assert "MarketGraph.simple_edges" in built


# --- pickle round trips and rates files compared by value


def _arrays(record):
    """Every array a record holds in its attributes, inside tuples too."""
    stack = list(vars(record).values())
    while stack:
        value = stack.pop()
        if isinstance(value, np.ndarray):
            yield value
        elif isinstance(value, tuple):
            stack.extend(v for v in value if isinstance(v, (np.ndarray, tuple)))


def test_a_pickle_round_trip_keeps_arrays_read_only_and_equality():
    g = generate_graph("pa", 20, m=2, seed=1)
    spec = canonical_basis(g)
    spec._found, g._tree_arrays, g._edge_ends, g._forward_keys  # cached arrays, read-only here
    e = exp_of(complete(random_assignment(g, 1)))
    e.entries  # and the dense view
    rates = load_rates(DATA / "triangle_ok.csv")
    for record in (g, spec, e, rates, MarketGraph(g.n, frozenset(g.edges))):
        copy = pickle.loads(pickle.dumps(record))
        arrays = list(_arrays(copy))
        assert arrays and not any(a.flags.writeable for a in arrays), type(record)
        if record is e:  # an edge matrix compares by identity
            assert copy.graph == g and np.array_equal(copy.values, e.values)
        else:
            assert copy == record and hash(copy) == hash(record)


def test_rates_files_compare_by_value_without_building_filled(tmp_path):
    one_sided = tmp_path / "one_sided.csv"
    one_sided.write_text("src,dst,rate\n1,2,2.0\n2,3,4.0\n3,1,0.125\n1,3,8.0\n")
    for path in (DATA / "triangle_ok.csv", one_sided):
        a, b = load_rates(path), load_rates(path)
        assert a == b and not a != b and hash(a) == hash(b) and len({a, b}) == 1
        assert "filled" not in vars(a) and "filled" not in vars(b)
    a, b = load_rates(DATA / "triangle_ok.csv"), load_rates(one_sided)
    assert a != b and not a == b
    # a file built directly equals the loaded one with the same contents
    for loaded in (a, b):
        direct = RatesFile(matrix=loaded.matrix, labels=loaded.labels, filled=loaded.filled)
        assert direct == loaded and hash(direct) == hash(loaded)
        other = RatesFile(matrix=loaded.matrix, labels=loaded.labels, filled=((1, 3),))
        assert other != loaded
    relabelled = RatesFile(matrix=a.matrix, labels=("x", "y", "z"), filled=())
    assert relabelled != a and not relabelled == a
