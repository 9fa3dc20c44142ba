"""The chord check against exact arithmetic, on markets of up to 10^4 goods.

Every float is an integer count of 2**-1074, so ``helpers.exact_gains``
gives each fundamental cycle's gain exactly, on a tree of its own. The check
screens each chord by its residual r = v - (p[m] - p[k]) and the rounding
bound B of its docstring, and climbs only the chords the screen cannot
decide. Here, on each market, consistent and with errors planted at
tol * (1 +- 1e-6) and at 1%, on a chord and on a tree edge at good 1:

- the exact gain and the walk-order gain of every chord lie in [r - B, r + B];
- the verdict is the exact one wherever no exact |gain| lies within
  rounding of ``tol``;
- the witness is the exact maximum wherever that maximum is unique beyond
  rounding;
- the result is the one that climbing every chord gives, field for field,
  the largest residual standing in for the largest gain on a consistent
  market.

And on each consistent market, every price of ``price_vector`` lies within
the rounding of its D additions down the tree of the exact sum of its steps.
"""

import functools
import heapq

import numpy as np
import pytest

from arbx import LogRateMatrix, check_no_arbitrage, generate_graph, new_graph, price_vector, spanning_tree
from arbx.exchange import _chord_gains
from arbx.graph import _connected_tree
from helpers import (
    _reference_tree_path,
    exact_gains,
    exact_units,
    reference_bfs,
    reference_potentials,
)

TOL = 1e-9
U = 2.0**-53
SIDE = 100


def _markets():
    n = SIDE * SIDE
    grid = [(v, v + 1) for v in range(1, n + 1) if v % SIDE] + [(v, v + SIDE) for v in range(1, n - SIDE + 1)]
    rng = np.random.default_rng(11)
    # the ring's log prices wander along it, so its one chord's interval straddles tol
    yield "ring", new_graph(5_000, [(v, v % 5_000 + 1) for v in range(1, 5_001)]), np.cumsum(rng.uniform(-8, 8, 5_000))
    yield "grid", new_graph(n, grid), rng.uniform(-2, 2, n)
    yield "pa", generate_graph("pa", 2_000, m=3, seed=7), rng.uniform(-2, 2, 2_000)
    yield "K150", generate_graph("complete", 150), rng.uniform(-2, 2, 150)
    yield "path", new_graph(5_000, [(v, v + 1) for v in range(1, 5_000)]), rng.uniform(-2, 2, 5_000)


MARKETS = {name: (g, p) for name, g, p in _markets()}
PLANTS = [("consistent", None, 0.0)] + [
    (f"{where}-{size}", where, size)
    for where in ("chord", "tree")
    for size in (TOL * (1 + 1e-6), TOL * (1 - 1e-6), 0.01)
]


def _sheet(g, prices, where, size):
    """Log rates as a sheet holds them, each direction through exp and log,
    with ``size`` added to one pair i -> j and taken from j -> i."""
    src, dst = g._edge_ends
    values = np.log(np.exp(prices[dst] - prices[src]))
    if where is not None:
        t, e = _connected_tree(g), g._lo.size
        if where == "tree":  # good 1's first tree edge
            k = int(np.minimum(t.to_parent, t.from_parent)[t.order[1]])
        else:
            chords = np.flatnonzero((t.parent[g._lo] != g._hi) & (t.parent[g._hi] != g._lo))
            k = int(chords[chords.size // 2])
        values[k] += size
        values[k + e] -= size
    return LogRateMatrix._of(g, values)


@functools.lru_cache(maxsize=8)
def _tree(g):
    """The reference tree's (parent, child) edges, its depth and the chords
    in ascending order, once per graph."""
    edges = reference_bfs(g).tree_edges
    depth = {1: 0}
    for u, w in edges:
        depth[w] = depth[u] + 1
    tree = {(min(u, w), max(u, w)) for u, w in edges}
    return edges, max(depth.values()), [c for c in g.simple_edges if c not in tree]


def _screen(e):
    """Each chord's residual r and rounding bound B, from the formula in
    ``check_no_arbitrage``'s docstring, over the reference tree."""
    g = e.graph
    edges, d, chords = _tree(g)
    src, dst = g._edge_ends
    value = dict(zip(zip((src + 1).tolist(), (dst + 1).tolist()), e.values.tolist()))
    p = reference_potentials(g.n, edges, [value[ij] for ij in edges])
    drift = d * max((abs(value[(u, w)] + value[(w, u)]) for u, w in edges), default=0.0)
    err = 2 * U * d * max(map(abs, p))
    spread = max(p) - min(p)
    residuals = [value[(k, m)] - (p[m - 1] - p[k - 1]) for k, m in chords]
    bounds = [2 * ((2 * d + 3) * U * (abs(value[c]) + spread + drift + err) + drift + err) + 2.0**-1070 for c in chords]
    return residuals, bounds


def _full_climb(e, tol, gains, residuals):
    """The check from every chord's walk-order gain, the worst condition
    picked in Python; on a consistent market it reports the largest
    |antisymmetry sum| or |residual|."""
    g = e.graph
    t = _connected_tree(g)
    a, b = g._lo, g._hi
    chords = np.flatnonzero((t.parent[a] != b) & (t.parent[b] != a))
    sums = (e.values[: a.size] + e.values[a.size : 2 * a.size]).tolist()
    edges = list(zip((a + 1).tolist(), (b + 1).tolist()))
    conditions = [(edge, s, False) for edge, s in zip(edges, sums)]
    conditions += [(edges[c], gain, True) for c, gain in zip(chords.tolist(), gains)]
    bad = [c for c in conditions if abs(c[1]) > tol]
    if not bad:
        return True, None, len(conditions), max(map(abs, sums + residuals), default=0.0)
    (i, j), gain, chord = min(bad, key=lambda c: (-abs(c[1]), c[0]))
    cycle = (i, *_reference_tree_path(spanning_tree(g), j, i)) if chord else (i, j, i)
    return False, (cycle, gain), len(conditions), max(abs(c[1]) for c in conditions)


@pytest.mark.parametrize(
    "name, plant",
    # a path has no chord to plant on
    [(name, plant) for name in MARKETS for plant in PLANTS if not (name == "path" and plant[1] == "chord")],
    ids=lambda x: x if isinstance(x, str) else x[0],
)
def test_check_against_exact_gains(name, plant):
    g, prices = MARKETS[name]
    e = _sheet(g, prices, *plant[1:])
    result = check_no_arbitrage(e, TOL)

    # the exact gain and the walk-order gain of every chord lie in the screen's interval
    t = _connected_tree(g)
    a, b = g._lo, g._hi
    chords = np.flatnonzero((t.parent[a] != b) & (t.parent[b] != a))
    walked = _chord_gains(e.values, t, chords, a[chords], b[chords]).tolist()
    exact, (residuals, bounds) = exact_gains(e), _screen(e)
    assert len(exact) == len(residuals) == len(walked) == chords.size
    radii = []
    for c, (big, r, bound, g_c) in enumerate(zip(exact, residuals, bounds, walked)):
        r_units, b_units = exact_units(r), exact_units(bound)
        assert abs(big - r_units) <= b_units, (c, big / 2**1074, r, bound)
        assert abs(exact_units(g_c) - r_units) <= b_units, (c, g_c, r, bound)
        radii.append(2 * b_units)

    # conditions in the check's order, antisymmetry sums, then chords, each
    # exact, with how far rounding may move it
    sums = e.values[: a.size] + e.values[a.size : 2 * a.size]
    conditions = []
    for x, y, s in zip(e.values[: a.size].tolist(), e.values[a.size : 2 * a.size].tolist(), sums.tolist()):
        exact_sum = exact_units(x) + exact_units(y)
        conditions.append((abs(exact_sum), abs(exact_units(s) - exact_sum)))
    conditions += [(abs(big), rad) for big, rad in zip(exact, radii)]
    tol = exact_units(TOL)
    if not any(abs(x - tol) <= rad for x, rad in conditions):
        assert result.ok == all(x <= tol for x, _ in conditions), plant
    if not result.ok:
        top, runner = heapq.nlargest(2, range(len(conditions)), key=lambda k: conditions[k][0])
        if conditions[top][0] - conditions[runner][0] > conditions[top][1] + conditions[runner][1]:
            k = top - a.size
            want = (int(a[top]) + 1, int(b[top]) + 1) if k < 0 else (int(a[chords[k]]) + 1, int(b[chords[k]]) + 1)
            assert result.witness.cycle[:2] == want, (plant, result.witness.cycle[:4], want)
            assert abs(abs(exact_units(result.witness.log_gain)) - conditions[top][0]) <= conditions[top][1]

    # and the result is the one every chord's climb gives, bit for bit
    ok, witness, checked, max_abs = _full_climb(e, TOL, walked, residuals)
    assert (result.ok, result.cycles_checked, result.max_abs_log_gain) == (ok, checked, max_abs)
    assert (None if witness is None else (result.witness.cycle, result.witness.log_gain)) == witness


def test_the_planted_errors_reach_both_sides_of_tol():
    # the exact verdicts these markets exercise, so that the gate cannot pass vacuously
    seen = set()
    for name in ("grid", "K150"):
        g, prices = MARKETS[name]
        for _, where, size in PLANTS:
            e = _sheet(g, prices, where, size)
            seen.add((where, size, check_no_arbitrage(e, TOL).ok))
    assert (None, 0.0, True) in seen
    assert ("chord", 0.01, False) in seen and ("tree", 0.01, False) in seen


@pytest.mark.parametrize("name", MARKETS)
def test_prices_against_exact_potentials(name):
    # each good's price adds D steps at most, each rounding by at most
    # u * max|p|; the exact price sums the steps of reference_bfs's tree
    # from good 1 in units of 2**-1074, as exact_gains does
    g, prices = MARKETS[name]
    e = _sheet(g, prices, None, 0.0)
    got = price_vector(e, 1).prices
    edges, d, _ = _tree(g)
    src, dst = g._edge_ends
    value = dict(zip(zip((src + 1).tolist(), (dst + 1).tolist()), map(exact_units, e.values.tolist())))
    exact = {1: 0}
    for u, w in edges:
        exact[w] = exact[u] + value[(u, w)]
    assert len(exact) == g.n == len(got)
    bound = d * exact_units(max(map(abs, got))) + 2**53  # 2**53 (u * D * max|p| + one unit), u = 2**-53
    worst = max(abs(exact_units(p) - exact[v]) for v, p in enumerate(got, 1))
    assert worst * 2**53 <= bound, (worst * 2**53 / bound, d)
