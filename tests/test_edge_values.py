"""Edge-value storage: one value per directed edge, a dense view on request.

Every edge-value path must give the same floats, bit for bit, as the dense
n x n implementation kept in ``helpers``, and must allocate O(n + edges).
"""

import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest

from arbx import (
    LogRateMatrix,
    PriceVector,
    apply_exact,
    check_antisymmetry,
    check_no_arbitrage,
    complete,
    cycle_log_gain,
    exp_of,
    fundamental_cycles,
    generate_graph,
    log_of,
    matrix_from_prices,
    new_graph,
    price_vector,
    propagate_multiplicative_first_order,
    spanning_tree,
)
from arbx.io import rate_rows
from helpers import (
    random_assignment,
    reference_complete,
    reference_differences,
    reference_exp_of,
    reference_log_of,
    reference_potentials,
    reference_rate_rows,
    reference_residuals,
    same_bits,
)


def _with_loops(g, rng, share=0.15):
    loops = [(v, v) for v in range(1, g.n + 1) if rng.random() < share]
    return new_graph(g.n, [*g.edges, *loops])


def _graphs():
    rng = random.Random(3)
    ring = new_graph(40, [(v, v % 40 + 1) for v in range(1, 41)] + [(1, 20), (7, 33)])
    grid = [(r * 8 + c + 1, r * 8 + c + 2) for r in range(8) for c in range(7)]
    grid += [(r * 8 + c + 1, (r + 1) * 8 + c + 1) for r in range(7) for c in range(8)]
    yield "ring", _with_loops(ring, rng)
    yield "grid", _with_loops(new_graph(64, grid), rng)
    yield "pa", _with_loops(generate_graph("pa", 120, m=3, seed=4), rng)
    yield "gnp", _with_loops(generate_graph("gnp", 50, p=0.15, seed=5), rng)
    yield "tree", generate_graph("tree", 30, seed=6)
    yield "single", new_graph(1, [(1, 1)])


GRAPHS = dict(_graphs())


def _log_arrays(g, seed):
    """A consistent dense log matrix of ``g`` and a skewed copy: loops off
    zero, one edge skewed one-sided, one two-sided."""
    rng = random.Random(seed)
    consistent = reference_complete(*_assignment(g, seed))
    skewed = consistent.copy()
    for v in g.loops:
        skewed[v - 1, v - 1] = rng.uniform(-0.5, 0.5)
    for both in (False, True):
        if g.simple_edges:
            i, j = rng.choice(g.simple_edges)
            s = rng.uniform(-0.5, 0.5)
            skewed[i - 1, j - 1] += s
            if both:
                skewed[j - 1, i - 1] -= s
    return consistent, skewed


def _assignment(g, seed):
    a = random_assignment(g, seed)
    return a.spec, a.values


@pytest.mark.parametrize("name", GRAPHS)
class TestSameBitsAsDense:
    def test_complete(self, name):
        g = GRAPHS[name]
        for seed in range(3):
            a = random_assignment(g, seed)
            assert same_bits(complete(a).entries, reference_complete(a.spec, a.values))

    def test_matrix_from_prices(self, name):
        g = GRAPHS[name]
        rng = random.Random(1)
        prices = [rng.uniform(-5.0, 5.0) for _ in range(g.n)]
        prices[0] = 0.0
        for p in (prices, PriceVector(reference=1, prices=prices)):
            assert same_bits(matrix_from_prices(g, p).entries, reference_differences(g, prices))

    def test_log_and_exp(self, name):
        g = GRAPHS[name]
        for arr in _log_arrays(g, 2):
            e = LogRateMatrix(g, arr)
            r = exp_of(e)
            assert same_bits(r.entries, reference_exp_of(e))
            assert same_bits(log_of(r).entries, reference_log_of(r))

    def test_rate_rows(self, name):
        g = GRAPHS[name]
        labels = [f"g{v}" for v in range(1, g.n + 1)]
        for arr in _log_arrays(g, 3):
            r = exp_of(LogRateMatrix(g, arr))
            assert rate_rows(r.values, g, labels) == reference_rate_rows(r.entries, g, labels)

    def test_prices(self, name):
        g = GRAPHS[name]
        consistent, _ = _log_arrays(g, 4)
        e = LogRateMatrix(g, consistent)
        edges = spanning_tree(g).tree_edges
        q = reference_potentials(g.n, edges, [float(consistent[u - 1, v - 1]) for u, v in edges])
        for ref in (1, g.n):
            assert price_vector(e, ref).prices == tuple(x - q[ref - 1] for x in q)

    def test_perturbation(self, name):
        g = GRAPHS[name]
        consistent, _ = _log_arrays(g, 5)
        spec, values = _assignment(g, 6)
        delta = reference_complete(spec, [0.01 * v for v in values])
        e, d = LogRateMatrix(g, consistent), LogRateMatrix(g, delta)
        r = exp_of(e)
        step = propagate_multiplicative_first_order(r, d)
        assert same_bits(step, r.entries * d.entries)
        updated, rates = apply_exact(e, d)
        assert same_bits(updated.entries, consistent + delta)
        assert same_bits(rates.entries, np.exp(consistent + delta))

    def test_check(self, name):
        g = GRAPHS[name]
        for arr in _log_arrays(g, 7):
            e = LogRateMatrix(g, arr)
            result = check_no_arbitrage(e, 1e-9)
            gains = [cycle_log_gain(e, fc.cycle) for fc in fundamental_cycles(g, spanning_tree(g))]
            sums = [arr[i - 1, j - 1] + arr[j - 1, i - 1] for i, j in g.simple_edges]
            loops = [arr[v - 1, v - 1] for v in g.loops]
            # a consistent market reports its largest residual, not its largest gain
            chords = gains if not result.ok else reference_residuals(e)
            assert result.max_abs_log_gain == max(map(abs, [*loops, *sums, *chords]), default=0.0)


class TestEdgeIds:
    @pytest.mark.parametrize("name", GRAPHS)
    def test_id_order(self, name):
        g = GRAPHS[name]
        src, dst = g._edge_ends
        e = len(g.simple_edges)
        pairs = list(zip((src + 1).tolist(), (dst + 1).tolist()))
        assert pairs[:e] == list(g.simple_edges)
        assert pairs[e : 2 * e] == [(j, i) for i, j in g.simple_edges]
        assert pairs[2 * e :] == [(v, v) for v in g.loops]

    @pytest.mark.parametrize("name", ["ring", "gnp", "single"])
    def test_lookup_inverts_the_edge_ends(self, name):
        g = GRAPHS[name]
        src, dst = g._edge_ends
        expected = np.full(g.n * g.n, -1)
        expected[src * g.n + dst] = np.arange(src.size)
        i, j = np.divmod(np.arange(g.n * g.n), g.n)
        assert g._edge_ids(i, j).tolist() == expected.tolist()
        assert [int(g._edge_ids(a, b)) for a, b in zip(src.tolist(), dst.tolist())] == list(
            range(src.size)
        )

    def test_values_follow_the_ids(self):
        g = GRAPHS["grid"]
        arr = _log_arrays(g, 8)[1]
        e = LogRateMatrix(g, arr)
        src, dst = g._edge_ends
        assert same_bits(e.values, arr[src, dst])
        for k, (i, j) in enumerate(zip((src + 1).tolist(), (dst + 1).tolist())):
            assert e.value(i, j) == e.values[k]


class TestStorage:
    def test_values_are_owned_and_read_only(self):
        g = GRAPHS["ring"]
        arr = _log_arrays(g, 9)[0]
        e = LogRateMatrix(g, arr)
        before = e.values.copy()
        arr += 1.0
        assert same_bits(e.values, before)
        with pytest.raises(ValueError):
            e.values[0] = 2.0

    def test_dense_view_is_built_once(self):
        e = complete(random_assignment(GRAPHS["pa"], 1))
        assert "entries" not in vars(e)
        view = e.entries
        assert e.entries is view
        assert not view.flags.writeable

    def test_off_edge_coordinates_read_the_fill(self):
        g = new_graph(3, [(1, 2), (2, 3)])
        e = LogRateMatrix.from_values(g, {(1, 2): 0.5, (2, 1): -0.5})
        assert e.value(1, 3) == 0.0 and e.value(3, 3) == 0.0
        assert exp_of(e).rate(3, 1) == 1.0
        assert e.values.tolist() == [0.5, 0.0, -0.5, 0.0]


def _peak(fn, *args) -> int:
    fn(*args)  # warm the graph's cached arrays
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_memory_is_linear_in_the_graph():
    # one float per vertex and edge is 64 KB here, a dense matrix 32 MB; the
    # edge-value work stays within 4 units, and complete() with its basis
    # search and potentials within 6 (test_graph_arrays.py)
    n = 2000
    g = generate_graph("pa", n, m=3, seed=1)
    bound = 16 * (n + len(g.simple_edges)) * 8
    a = random_assignment(g, 1)
    e = complete(a)
    r = exp_of(e)
    prices = price_vector(e, 1)
    for name, fn, arg in [
        ("log_of", log_of, r),
        ("exp_of", exp_of, e),
        ("complete", complete, a),
        ("matrix_from_prices", lambda p: matrix_from_prices(g, p), prices),
    ]:
        peak = _peak(fn, arg)
        assert peak < bound, (name, peak, bound)


def test_overflowing_gains_raise_no_warning():
    g = generate_graph("complete", 5)
    arr = np.zeros((5, 5))
    for i, j in g.simple_edges:
        arr[i - 1, j - 1] = 1e308
        arr[j - 1, i - 1] = -1e308 if (i + j) % 2 else 1e308
    e = LogRateMatrix(g, arr)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = check_no_arbitrage(e)
        gain = cycle_log_gain(e, (1, 2, 3, 1))
        violations = check_antisymmetry(e)
    assert result.max_abs_log_gain == math.inf
    assert gain == math.inf
    assert {v.residual for v in violations} == {math.inf}
