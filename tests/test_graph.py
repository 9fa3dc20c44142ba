import pickle

import numpy as np
import pytest

from arbx import (
    BadParamsError,
    DuplicateEdgeError,
    GraphIndexError,
    NotConnectedError,
    OracleSizeError,
    SpanningTree,
    TreeMismatchError,
    enumerate_simple_cycles,
    fundamental_cycles,
    generate_graph,
    is_connected,
    new_graph,
    spanning_tree,
)
from helpers import random_connected_graph


def canonical_cycle(cycle):
    """Lexicographically smallest rotation/reflection, for comparing cycles."""
    core = list(cycle[:-1])
    best = None
    for rot in range(len(core)):
        seq = core[rot:] + core[:rot]
        for cand in (seq, [seq[0]] + seq[1:][::-1]):
            t = tuple(cand) + (cand[0],)
            if best is None or t < best:
                best = t
    return best


K3 = new_graph(3, [{1, 2}, {2, 3}, {1, 3}])
P4 = new_graph(4, [(1, 2), (2, 3), (3, 4)])
K4 = new_graph(4, [(i, j) for i in range(1, 4) for j in range(i + 1, 5)])


class TestNewGraph:
    def test_triangle(self):
        assert K3.n == 3
        assert K3.simple_edges == ((1, 2), (1, 3), (2, 3))
        assert K3.loops == ()

    def test_single_vertex(self):
        g = new_graph(1, [])
        assert g.n == 1
        assert g.edges == frozenset()

    def test_path(self):
        assert P4.simple_edges == ((1, 2), (2, 3), (3, 4))

    def test_normalizes_and_dedupes(self):
        g = new_graph(3, [(2, 1), (1, 2), (3, 1)])
        assert g.simple_edges == ((1, 2), (1, 3))

    def test_strict_duplicate(self):
        with pytest.raises(DuplicateEdgeError):
            new_graph(3, [(1, 2), (2, 1)], strict=True)

    def test_index_out_of_range(self):
        with pytest.raises(GraphIndexError):
            new_graph(3, [(1, 4)])
        with pytest.raises(GraphIndexError):
            new_graph(3, [(0, 2)])

    def test_bad_vertex_count(self):
        with pytest.raises(BadParamsError):
            new_graph(0, [])

    def test_loop_via_singleton_set(self):
        g = new_graph(2, [(1, 2), {2}])
        assert g.loops == (2,)
        assert g.has_edge(2, 2)
        assert not g.has_edge(1, 1)


class TestConnectivity:
    def test_triangle_connected(self):
        assert is_connected(K3)

    def test_two_components(self):
        assert not is_connected(new_graph(4, [(1, 2), (3, 4)]))

    def test_single_vertex_connected(self):
        assert is_connected(new_graph(1, []))

    def test_loops_do_not_connect(self):
        assert not is_connected(new_graph(2, [{1}, {2}]))


class TestSpanningTree:
    def test_k3_breadth_first_from_one(self):
        t = spanning_tree(K3)
        assert t.root == 1
        assert t.tree_edges == ((1, 2), (1, 3))

    def test_path_is_its_own_tree(self):
        t = spanning_tree(P4)
        assert {(min(u, v), max(u, v)) for u, v in t.tree_edges} == set(P4.simple_edges)

    def test_single_vertex_empty_tree(self):
        t = spanning_tree(new_graph(1, []))
        assert t.tree_edges == ()

    def test_disconnected_rejected(self):
        with pytest.raises(NotConnectedError):
            spanning_tree(new_graph(4, [(1, 2), (3, 4)]))

    def test_parent_map_is_read_only(self):
        g = generate_graph("pa", 30, m=2, seed=1)
        with pytest.raises(TypeError):
            spanning_tree(g).parent[2] = 5
        assert spanning_tree(g).path_to_root(2)[-1] == 1

    def test_computed_once_per_graph(self):
        g = generate_graph("pa", 30, m=2, seed=1)
        first, second = spanning_tree(g), spanning_tree(g)
        assert first.tree_edges == second.tree_edges
        assert first is second

    def test_graph_and_tree_survive_pickling(self):
        g = generate_graph("pa", 30, m=2, seed=1)
        t = spanning_tree(g)
        g2, t2 = pickle.loads(pickle.dumps((g, t)))
        assert g2 == g
        assert spanning_tree(g2).tree_edges == t2.tree_edges == t.tree_edges
        assert dict(t2.parent) == dict(t.parent)
        with pytest.raises(TypeError):
            t2.parent[2] = 5


class TestFundamentalCycles:
    def test_k3_single_cycle(self):
        fcs = fundamental_cycles(K3, spanning_tree(K3))
        assert len(fcs) == 1
        assert fcs[0].chord == (2, 3)
        assert fcs[0].cycle == (2, 3, 1, 2)

    def test_path_has_none(self):
        assert fundamental_cycles(P4, spanning_tree(P4)) == []

    def test_k4_has_three(self):
        assert len(fundamental_cycles(K4, spanning_tree(K4))) == 3

    def test_loops_excluded(self):
        g = new_graph(3, [(1, 2), (2, 3), (1, 3), {2}])
        assert len(fundamental_cycles(g, spanning_tree(g))) == 1

    def test_tree_mismatch(self):
        with pytest.raises(TreeMismatchError):
            fundamental_cycles(K4, spanning_tree(K3))

    # a caller's tree is read like a graph: a float or a bool is no good,
    # though 2.0 == 2 and True == 1 as set members
    @pytest.mark.parametrize("tree, message", [
        (SpanningTree(1, {2.0: 1, 3: 1}, ((1, 2.0), (1, 3))), r"tree edge \(1, 2.0\) has non-integer vertices"),
        (SpanningTree(True, {2: 1, 3: 1}, ((1, 2), (1, 3))), "tree vertex True out of range"),
        (SpanningTree(1, {2: 1, 3: 2.0}, ((1, 2), (2, 3))), r"tree step \(3, 2.0\) has non-integer vertices"),
        (SpanningTree(1, {2: 1, True: 1}, ((1, 2), (1, 3))), "tree vertex True out of range"),
        (SpanningTree(1, {2: 1, 5: 1}, ((1, 2), (1, 3))), "tree vertex 5 out of range 1..3"),
    ])
    def test_tree_goods_must_be_integers(self, tree, message):
        with pytest.raises(TreeMismatchError, match=message):
            fundamental_cycles(K3, tree)

    def test_parent_map_must_step_along_the_tree_edges(self):
        # the edges say 2 and 3 hang from 1, the parent map walks 2 -> 3 -> 1
        tree = SpanningTree(1, {2: 3, 3: 1}, ((1, 2), (1, 3)))
        with pytest.raises(TreeMismatchError, match="parent map does not step along the tree edges"):
            fundamental_cycles(K3, tree)

    def test_tree_of_numpy_integers_is_read_like_ints(self):
        tree = spanning_tree(K3)
        as_numpy = SpanningTree(
            np.int64(tree.root),
            {np.int64(c): np.int64(p) for c, p in tree.parent.items()},
            tuple((np.int64(p), np.int64(c)) for p, c in tree.tree_edges),
        )
        assert fundamental_cycles(K3, as_numpy) == fundamental_cycles(K3, tree)


class TestEnumerateSimpleCycles:
    def test_k3(self):
        assert enumerate_simple_cycles(K3) == [(1, 2, 3, 1)]

    def test_k3_with_loop(self):
        g = new_graph(3, [(1, 2), (2, 3), (1, 3), {2}])
        cycles = enumerate_simple_cycles(g)
        assert (2, 2) in cycles
        assert len(cycles) == 2

    def test_k4_count(self):
        cycles = enumerate_simple_cycles(K4)
        assert len(cycles) == 7  # 4 triangles + 3 quadrilaterals
        assert sum(1 for c in cycles if len(c) == 4) == 4
        assert sum(1 for c in cycles if len(c) == 5) == 3

    def test_path_has_none(self):
        assert enumerate_simple_cycles(P4) == []

    def test_max_len_filter(self):
        assert len(enumerate_simple_cycles(K4, max_len=3)) == 4

    def test_canonical_orientation(self):
        for cycle in enumerate_simple_cycles(K4):
            assert cycle[0] == min(cycle)
            assert cycle[1] < cycle[-2]

    def test_too_large(self):
        g = generate_graph("tree", 9, seed=0)
        with pytest.raises(OracleSizeError):
            enumerate_simple_cycles(g)


class TestGenerateGraph:
    def test_complete(self):
        g = generate_graph("complete", 4)
        assert g.simple_edges == K4.simple_edges

    def test_tree_edge_count_forced(self):
        g = generate_graph("tree", 5, seed=7)
        assert len(g.edges) == 4
        assert is_connected(g)

    def test_preferential_attachment_edge_count(self):
        g = generate_graph("preferential-attachment", 50, m=2, seed=1)
        assert len(g.edges) == 97  # m(n - m) + m(m - 1)/2
        assert is_connected(g)

    def test_deterministic_for_seed(self):
        a = generate_graph("gnp-connected", 7, p=0.5, seed=42)
        b = generate_graph("gnp-connected", 7, p=0.5, seed=42)
        assert a == b

    def test_gnp_connected(self):
        for seed in range(10):
            assert is_connected(generate_graph("gnp", 6, p=0.4, seed=seed))

    def test_bad_params(self):
        with pytest.raises(BadParamsError):
            generate_graph("gnp-connected", 5, seed=0)  # p missing
        with pytest.raises(BadParamsError):
            generate_graph("preferential-attachment", 5, m=5, seed=0)
        with pytest.raises(BadParamsError):
            generate_graph("preferential-attachment", 1, m=1, seed=0)
        with pytest.raises(BadParamsError):
            generate_graph("smallworld", 5, seed=0)

    def test_single_vertex_kinds(self):
        assert generate_graph("complete", 1).n == 1
        assert generate_graph("tree", 1, seed=3).edges == frozenset()


class TestStructuralInvariants:
    @pytest.mark.parametrize("seed", range(40))
    def test_tree_and_cycle_counts(self, seed):
        g = random_connected_graph(seed)
        t = spanning_tree(g)
        assert len(t.tree_edges) == g.n - 1
        fcs = fundamental_cycles(g, t)
        assert len(fcs) == len(g.simple_edges) - (g.n - 1)
        for fc in fcs:
            assert fc.cycle[0] == fc.cycle[-1]
            interior = fc.cycle[:-1]
            assert len(set(interior)) == len(interior)
            for u, v in zip(fc.cycle, fc.cycle[1:]):
                assert g.has_edge(u, v)

    @pytest.mark.parametrize("seed", range(15))
    def test_fundamental_cycles_in_oracle_output(self, seed):
        g = random_connected_graph(seed, n_hi=7)
        oracle = {canonical_cycle(c) for c in enumerate_simple_cycles(g) if len(c) > 2}
        for fc in fundamental_cycles(g, spanning_tree(g)):
            assert canonical_cycle(fc.cycle) in oracle

    @pytest.mark.parametrize("seed", range(25))
    def test_generated_graphs_connected(self, seed):
        assert is_connected(random_connected_graph(seed, n_hi=12))
