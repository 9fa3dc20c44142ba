"""Fundamental cycles and the check's witness, both walked on the tree arrays.

``fundamental_cycles`` checks a caller's tree in O(n + E) and walks each
chord on the breadth-first tree over the caller's edges. A tree path does
not depend on the root, so its output must equal the parent-map reference
on any spanning tree, and an invalid tree must fail with the same type.
"""

import pickle
import random
import time

import pytest

from arbx import (
    SpanningTree,
    canonical_basis,
    check_no_arbitrage,
    cycle_log_gain,
    fundamental_cycles,
    generate_graph,
    new_graph,
    spanning_tree,
)
from arbx.errors import TreeMismatchError
from helpers import chords_of, random_log_matrix, reference_fundamental_cycles


def _ring(n):
    return new_graph(n, [(v, v % n + 1) for v in range(1, n + 1)])


def _grid(side):
    n = side * side
    return new_graph(n, [(v, v + 1) for v in range(1, n + 1) if v % side]
                     + [(v, v + side) for v in range(1, n - side + 1)])


def _outcome(cycles_of, g, t):
    try:
        return pickle.dumps(cycles_of(g, t))
    except TreeMismatchError as exc:
        return type(exc)


def _dfs_tree(g, root, rng):
    # a depth-first tree from ``root`` with shuffled neighbours; each tree
    # edge is written (parent, child) or (child, parent) at random
    parent, edges, seen, stack = {}, [], {root}, [root]
    while stack:
        u = stack.pop()
        for w in rng.sample(g.neighbors(u), len(g.neighbors(u))):
            if w not in seen:
                seen.add(w)
                parent[w] = u
                edges.append((u, w) if rng.random() < 0.5 else (w, u))
                stack.append(w)
    return SpanningTree(root, parent, tuple(edges))


@pytest.mark.parametrize("seed", range(30))
def test_dfs_trees_at_random_roots_match_reference(seed):
    rng = random.Random(seed)
    g = generate_graph("pa", 60, m=rng.randint(1, 4), seed=seed)
    t = _dfs_tree(g, rng.randint(1, g.n), rng)
    assert t.tree_edges != spanning_tree(g).tree_edges
    assert _outcome(fundamental_cycles, g, t) == _outcome(reference_fundamental_cycles, g, t)


@pytest.mark.parametrize(
    "g",
    [
        generate_graph("pa", 300, m=3, seed=5),
        generate_graph("pa", 500, m=1, seed=2),
        _grid(30),
        _ring(3),
        _ring(500),
        new_graph(6, [(i, j) for i in range(1, 7) for j in range(i + 1, 7)] + [{1}, {4}]),
        new_graph(1, []),
    ],
    ids=["pa300", "pa500-tree", "grid30", "ring3", "ring500", "K6-loops", "one-good"],
)
def test_graphs_own_tree_matches_reference(g):
    t = spanning_tree(g)
    assert pickle.dumps(fundamental_cycles(g, t)) == pickle.dumps(reference_fundamental_cycles(g, t))


P3 = new_graph(3, [(1, 2), (2, 3)])
K3 = generate_graph("complete", 3)
K4 = generate_graph("complete", 4)


@pytest.mark.parametrize(
    "g, tree",
    [
        (K3, SpanningTree(1, {2: 1, 3: 1}, ((1, 2),))),  # an edge missing
        (P3, SpanningTree(1, {2: 1, 3: 1}, ((1, 2), (1, 3)))),  # a non-edge
        (P3, SpanningTree(1, {2: 1, 3: 2}, ((1, 2), (2, 1)))),  # an edge repeated
        (P3, SpanningTree(1, {2: 1, 3: 2}, ((1, 2), (2, 3), (1, 2)))),
        (K4, SpanningTree(1, {2: 1, 3: 2, 4: 3}, ((1, 2), (2, 3), (1, 3)))),  # a cycle, 4 left out
        (P3, SpanningTree(1, {1: 2, 2: 3, 3: 2}, ((1, 2), (2, 3)))),  # a cyclic parent map
        (P3, SpanningTree(1, {2: 3, 3: 2}, ((1, 2), (2, 3)))),
        (P3, SpanningTree(1, {2: 1, 3: 9}, ((1, 2), (2, 3)))),  # a step beyond the goods
        (P3, SpanningTree(1, {2: 1, 3: 3}, ((1, 2), (2, 3)))),  # a step in place
        (P3, SpanningTree(1, {2: 1}, ((1, 2), (2, 3)))),  # a good without a parent
        (P3, SpanningTree(1, {1: 2, 2: 1, 3: 2}, ((1, 2), (2, 3)))),  # the root as a key: valid
        (new_graph(2, [(1, 2)]), SpanningTree(1, {1: 2, 2: 1}, ((1, 2),))),
        (new_graph(1, []), SpanningTree(1, {1: 1}, ())),
    ],
)
def test_invalid_trees_fail_like_reference(g, tree):
    assert _outcome(fundamental_cycles, g, tree) == _outcome(reference_fundamental_cycles, g, tree)


def test_root_as_parent_key_stays_accepted():
    tree = SpanningTree(1, {1: 2, 2: 1}, ((1, 2),))
    assert fundamental_cycles(new_graph(2, [(1, 2)]), tree) == []


def test_cyclic_parent_map_names_a_good_on_the_cycle():
    tree = SpanningTree(1, {1: 2, 2: 3, 3: 2}, ((1, 2), (2, 3)))
    with pytest.raises(TreeMismatchError, match="no tree path from 2 to root 1"):
        fundamental_cycles(P3, tree)


def test_long_ring_is_linear():
    # the climb of every good to the root made this quadratic: ~35 s
    g = _ring(20_000)
    t = spanning_tree(g)
    start = time.perf_counter()
    (fc,) = fundamental_cycles(g, t)
    assert time.perf_counter() - start < 5.0
    # both halves of the ring meet at good 10001, reached first from 10000
    assert fc.chord == (10_001, 10_002)
    assert len(fc.cycle) == 20_001 and fc.cycle[0] == fc.cycle[-1] == 10_001


@pytest.mark.parametrize(
    "g",
    [generate_graph("pa", 2000, m=3, seed=7), _grid(30)],
    ids=["pa2000", "grid30"],
)
def test_witness_walks_the_tree_arrays(g):
    e = random_log_matrix(g, 11)
    chords = chords_of(g, canonical_basis(g))
    i, j = chords[len(chords) // 2]
    bad = e.with_entry(i, j, e.value(i, j) + 0.5).with_entry(j, i, e.value(j, i) - 0.5)
    result = check_no_arbitrage(bad)
    assert "_spanning_tree" not in g.__dict__
    assert not result.ok
    cycles = {fc.chord: fc.cycle for fc in fundamental_cycles(g, spanning_tree(g))}
    assert result.witness.cycle == cycles[(i, j)]
    assert cycle_log_gain(bad, result.witness.cycle) == result.witness.log_gain
