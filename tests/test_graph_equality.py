"""Graph equality and hashing read n and the sorted edge arrays.

They never build the ``edges`` frozenset, so the library calls that check
two matrices share a graph stay O(1) on one and the same graph.
"""

import numpy as np

from arbx import (
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
from helpers import random_assignment


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
