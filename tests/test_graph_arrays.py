"""The array graph layer against the queue-driven references in ``helpers``.

The level-by-level search must find the same tree as a deque walk over a
dict adjacency, and the level-by-level potentials must give the same
floats, bit for bit, as the signed-list walk, on large levels (one numpy
pass each) and on stretches of small ones (walked good by good) alike.
"""

import pickle
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arbx import (
    BadParamsError,
    BasisAssignment,
    BasisSpec,
    GraphIndexError,
    MarketGraph,
    NotABasisError,
    NotAnEdgeError,
    NotConnectedError,
    PerturbationOperator,
    PerturbationVector,
    build_operator,
    canonical_basis,
    complete,
    decompose,
    dimension,
    epsilon_matrices,
    generate_graph,
    is_basis,
    is_connected,
    new_graph,
    price_vector,
    propagate_log,
    spanning_tree,
)
from arbx import basis
from arbx.graph import SMALL_LEVEL, _spanning_entries
from helpers import (
    random_assignment,
    reference_bfs,
    reference_complete,
    reference_potentials,
    reference_tree_arrays,
    same_bits,
)


def _with_loops(g, seed, share=0.2):
    rng = random.Random(seed)
    return new_graph(g.n, [*g.edges, *((v, v) for v in range(1, g.n + 1) if rng.random() < share)])


def _broom():
    # fans wider than SMALL_LEVEL (one numpy pass each) alternate with paths
    # (walked vertex by vertex), and one fan of each size at the bound
    edges, tip = [(2, 3), (45, 60)], 1
    for fan, handle in [(40, 30), (20, 9), (SMALL_LEVEL, 1), (SMALL_LEVEL + 1, 3)]:
        edges += [(tip, v) for v in range(tip + 1, tip + fan + 1)]
        tip += fan
        edges += [(v, v + 1) for v in range(tip, tip + handle)]
        tip += handle
    return new_graph(tip, edges)


def _connected():
    ring = [(v, v % 40 + 1) for v in range(1, 41)] + [(1, 20), (7, 33)]
    grid = [(r * 8 + c + 1, r * 8 + c + 2) for r in range(8) for c in range(7)]
    grid += [(r * 8 + c + 1, (r + 1) * 8 + c + 1) for r in range(7) for c in range(8)]
    yield "ring", new_graph(40, ring)
    yield "grid", new_graph(64, grid)
    yield "pa", generate_graph("pa", 150, m=3, seed=4)
    yield "gnp", generate_graph("gnp", 50, p=0.12, seed=5)
    yield "tree", generate_graph("tree", 60, seed=6)
    yield "complete", generate_graph("complete", 14)
    yield "broom", _broom()
    yield "single", new_graph(1, [])


def _graphs():
    for k, (name, g) in enumerate(_connected()):
        yield name, g
        yield name + "+loops", _with_loops(g, k)


def _disconnected():
    pa = generate_graph("pa", 30, m=2, seed=7)
    shifted = [(i + 30, j + 30) for i, j in generate_graph("tree", 20, seed=8).simple_edges]
    yield "two parts", new_graph(50, [*pa.simple_edges, *shifted])
    yield "isolated tail", new_graph(12, [*generate_graph("gnp", 9, p=0.4, seed=9).edges, (10, 11)])
    yield "lonely root", new_graph(5, [(2, 3), (3, 4), (4, 5), (1, 1)])
    yield "loops only", new_graph(3, [(1, 1), (2, 2)])


GRAPHS = dict(_graphs())
DISCONNECTED = dict(_disconnected())


def _assert_same_tree(g):
    ref = reference_bfs(g)
    tree = g._spanning_tree
    assert tree.tree_edges == ref.tree_edges
    assert dict(tree.parent) == dict(ref.parent)
    assert list(tree.parent) == list(ref.parent)  # discovery order
    t = g._tree_arrays
    parent, depth, to_parent, from_parent = reference_tree_arrays(g)
    assert t.parent.tolist() == parent
    assert t.depth.tolist() == depth
    assert t.to_parent.tolist() == to_parent
    assert t.from_parent.tolist() == from_parent
    # the levels partition the reached vertices by depth, in discovery order
    assert t.order.tolist() == [0] + [w - 1 for _, w in ref.tree_edges]
    assert t.levels.size == max(depth[v - 1] for v in [1, *ref.parent]) + 2
    for d, (a, b) in enumerate(zip(t.levels[:-1].tolist(), t.levels[1:].tolist())):
        assert t.depth[t.order[a:b]].tolist() == [d] * (b - a)
    for v in range(1, g.n + 1):
        assert list(g.neighbors(v)) == sorted({j for i, j in g.simple_edges if i == v} | {
            i for i, j in g.simple_edges if j == v
        })


def _canonical_entries(g):
    tree = reference_bfs(g)
    return tuple((tree.parent[c], c) for c in sorted(tree.parent))


def _random_tree_spec(g, seed):
    """A spanning tree of ``g`` from shuffled edges, each entry in a random
    orientation: in general neither the breadth-first tree nor its order."""
    rng = random.Random(seed)
    edges = list(g.simple_edges)
    rng.shuffle(edges)
    root = list(range(g.n + 1))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    entries = []
    for i, j in edges:
        a, b = find(i), find(j)
        if a != b:
            root[a] = b
            entries.append((i, j) if rng.random() < 0.5 else (j, i))
    return BasisSpec(graph=g, entries=tuple(entries))


def _assert_same_values(g, seed):
    assert canonical_basis(g).entries == _canonical_entries(g)
    rng = random.Random(seed)
    for spec in (canonical_basis(g), _random_tree_spec(g, seed)):
        values = tuple(rng.uniform(-3.0, 3.0) for _ in spec.entries)
        assert is_basis(g, spec.entries)
        e = complete(BasisAssignment(spec=spec, values=values))
        assert same_bits(e.entries, reference_complete(spec, values))
        edges = reference_bfs(g).tree_edges
        q = reference_potentials(g.n, edges, [e.value(u, w) for u, w in edges])
        for ref in range(1, g.n + 1):
            want = [x - q[ref - 1] for x in q]
            assert same_bits(price_vector(e, ref).prices, want)


@pytest.mark.parametrize("name", GRAPHS)
def test_tree_matches_the_deque_walk(name):
    g = GRAPHS[name]
    _assert_same_tree(g)
    assert spanning_tree(g) is g._spanning_tree
    assert is_connected(g)


@pytest.mark.parametrize("name", DISCONNECTED)
def test_disconnected_spans_the_root_component(name):
    g = DISCONNECTED[name]
    _assert_same_tree(g)
    assert not is_connected(g)
    with pytest.raises(NotConnectedError):
        canonical_basis(g)


@pytest.mark.parametrize("name", GRAPHS)
def test_values_match_the_signed_list_walk(name):
    _assert_same_values(GRAPHS[name], 11)


def test_deep_path_graph():
    # one level per vertex: the longest run of passes a graph can ask for
    g = new_graph(300, [(v, v + 1) for v in range(1, 300)] + [(1, 300)])
    _assert_same_tree(g)
    _assert_same_values(g, 12)


@st.composite
def small_graphs(draw):
    n = draw(st.integers(1, 40))
    vertex = st.integers(1, n)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n))
    if draw(st.booleans()):  # a spanning path in random vertex order keeps half of them connected
        perm = draw(st.permutations(range(1, n + 1)))
        edges += list(zip(perm, perm[1:]))
    return new_graph(n, edges)


@settings(max_examples=150, deadline=None)
@given(g=small_graphs(), seed=st.integers(0, 2**16))
def test_random_graphs_match_the_references(g, seed):
    _assert_same_tree(g)
    assert is_connected(g) == (len(reference_bfs(g).tree_edges) == g.n - 1)
    if is_connected(g):
        _assert_same_values(g, seed)


class TestIsBasisEntries:
    G = new_graph(4, [(1, 2), (2, 3), (3, 4), (2, 2)])

    @pytest.mark.parametrize(
        "entries", [[(1, 4), (2, 2), (2, 3)], [(2, 2), (1, 4), (3, 4)], [(1, 2), (2, 1), (1, 4)]]
    )
    def test_any_non_edge_raises(self, entries):
        with pytest.raises(NotAnEdgeError, match=r"\(1, 4\) is not an edge"):
            is_basis(self.G, entries)

    @pytest.mark.parametrize("bad", [(1, 10**30), (-(10**30), 2), (0, 1), (4, 5), (1.5, 2)])
    def test_vertices_out_of_range_are_no_edges(self, bad):
        with pytest.raises(NotAnEdgeError):
            is_basis(self.G, [(1, 2), bad, (3, 4)])

    @pytest.mark.parametrize(
        "entries", [[(1, 2), (3, 4)], [(1, 2), (2, 1), (3, 4)], [(1, 2), (2, 2), (3, 4)]]
    )
    def test_no_spanning_tree(self, entries):
        assert not is_basis(self.G, entries)


def test_construction_validates_with_arrays():
    with pytest.raises(GraphIndexError, match=r"edge \(1, 5\) out of range 1..4"):
        MarketGraph(4, frozenset({(1, 2), (1, 5)}))
    with pytest.raises(GraphIndexError, match="out of range"):
        MarketGraph(4, frozenset({(1, 10**30)}))
    with pytest.raises(BadParamsError, match=r"edge \(3, 2\) is not normalized"):
        MarketGraph(4, frozenset({(1, 2), (3, 2)}))
    for edges in [{(1, 2, 3)}, {(1, 2, 3), (4,)}, {(1, 2), (3,)}]:
        with pytest.raises(BadParamsError, match="is not a vertex pair"):
            MarketGraph(4, frozenset(edges))
    for pair in [(1.5, 2), ("1", 2), (1, None)]:
        with pytest.raises(BadParamsError, match="non-integer vertices"):
            MarketGraph(4, frozenset({pair}))
    g = MarketGraph(4, frozenset({(3, 4), (1, 2), (2, 2), (1, 3)}))
    assert g.simple_edges == ((1, 2), (1, 3), (3, 4)) and g.loops == (2,)
    assert g == new_graph(4, [(4, 3), (2, 1), {2}, (3, 1)])


@pytest.mark.parametrize("name", ["pa", "broom"])
def test_graph_from_sorted_arrays(name):
    # the loader's constructor: the arrays as given, the edge set on first read
    g = _with_loops(GRAPHS[name], 3)
    h = MarketGraph._of_arrays(g.n, g._lo.copy(), g._hi.copy(), g._loop_array.copy())
    assert "edges" not in vars(h)
    assert h.simple_edges == g.simple_edges and h.loops == g.loops
    assert h.edges == g.edges and h == g and hash(h) == hash(g)
    assert pickle.loads(pickle.dumps(h)) == g
    assert all(same_bits(a, b) for a, b in zip(h._tree_arrays, g._tree_arrays))
    assert not h._lo.flags.writeable and not h._loop_array.flags.writeable


def test_operator_searches_its_basis_once(monkeypatch):
    # one spanning search per spec, however many completions read it
    spec = _random_tree_spec(GRAPHS["pa"], 13)
    with pytest.raises(NotABasisError):
        PerturbationOperator(spec=BasisSpec(graph=spec.graph, entries=spec.entries[1:]))
    searches = []

    def search(*args):
        searches.append(args)
        return _spanning_entries(*args)

    monkeypatch.setattr(basis, "_spanning_entries", search)
    op = build_operator(spec)
    assert vars(op) == {"spec": spec}
    deltas = tuple(random.Random(13).uniform(-1.0, 1.0) for _ in spec.entries)
    got = propagate_log(op, PerturbationVector(spec=spec, deltas=deltas))
    for _ in range(2):
        e = complete(BasisAssignment(spec=spec, values=deltas))
        assert same_bits(got.entries, e.entries)
    assert decompose(e, spec) == list(deltas)
    assert len(epsilon_matrices(spec).matrices) == spec.size
    assert len(searches) == 1


def _peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_complete_memory_is_linear():
    # one float per vertex and edge is 64 KB here; the basis validation,
    # its search and the potentials are counted, on a spec seen first here
    n = 2000
    g = generate_graph("pa", n, m=3, seed=1)
    unit = (n + len(g.simple_edges)) * 8
    a = random_assignment(g, 1)
    complete(a)  # warm the graph's cached arrays
    fresh = BasisAssignment(spec=BasisSpec(graph=g, entries=a.spec.entries), values=a.values)
    assert _peak(complete, fresh) < 6 * unit


def test_huge_n_allocates_nothing_sized_by_n():
    # fewer than n - 1 edges settle connectivity before any array of n entries
    def probe():
        g = MarketGraph(10**9, frozenset({(1, 2)}))
        assert not is_connected(g)
        for fn in (dimension, spanning_tree, canonical_basis):
            with pytest.raises(NotConnectedError):
                fn(g)

    assert _peak(probe) < 1 << 20
