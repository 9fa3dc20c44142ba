"""The array chord check against the per-chord reference and the oracle.

``check_no_arbitrage`` sums every fundamental-cycle gain in walk order, so
its result must equal the reference's field for field, bits included.
"""

import math
import random
from pathlib import Path

import numpy as np
import pytest

from arbx import (
    LogRateMatrix,
    check_no_arbitrage,
    check_no_arbitrage_oracle,
    generate_graph,
    new_graph,
)
from arbx.exchange import log_of
from arbx.io import load_graph, load_rates
from helpers import random_log_matrix, reference_check_no_arbitrage

DATA = Path(__file__).parent / "data"
TOLS = (1e-12, 1e-9, 1e-3)
BLOCK = 125


def _graph(rng, n_hi):
    kind = rng.choice(("tree", "gnp", "pa", "complete", "ring"))
    n = rng.randint(1, n_hi)
    seed = rng.randrange(2**32)
    if kind == "gnp":
        return generate_graph(kind, n, p=rng.uniform(0.3, 1.0), seed=seed)
    if kind == "pa" and n >= 2:
        return generate_graph(kind, n, m=rng.randint(1, min(3, n - 1)), seed=seed)
    if kind == "ring" and n >= 3:
        # a long cycle plus a few chords: deep trees, uneven climbs to the lca
        ring = [(v, v % n + 1) for v in range(1, n + 1)]
        extra = [tuple(rng.sample(range(1, n + 1), 2)) for _ in range(rng.randint(0, 3))]
        return new_graph(n, ring + extra)
    return generate_graph("complete" if kind == "complete" else "tree", n, seed=seed)


def skewed_instance(seed, n_hi=40):
    """A consistent matrix with loops and a few skewed quotes, plus a tolerance.

    A skew of 1e-12 to 0.5 lands on an edge one-sided (it also breaks
    antisymmetry) or two-sided (it breaks only cycles).
    """
    rng = random.Random(seed)
    g = _graph(rng, n_hi)
    loop_share = rng.choice((0.0, 0.0, 0.15))
    loops = [(v, v) for v in range(1, g.n + 1) if rng.random() < loop_share]
    g = new_graph(g.n, [*g.edges, *loops])
    arr = np.array(random_log_matrix(g, rng.randrange(2**32)).entries)

    def skew():
        return rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, math.log10(0.5))

    for v, _ in loops:
        arr[v - 1, v - 1] = rng.choice((0.0, skew()))
    for _ in range(rng.randint(0, 3) if g.simple_edges else 0):
        i, j = rng.choice(g.simple_edges)
        s = skew()
        arr[i - 1, j - 1] += s
        if rng.random() < 0.5:
            arr[j - 1, i - 1] -= s
    return LogRateMatrix(g, arr), rng.choice(TOLS)


@pytest.mark.parametrize("block", range(8))
def test_equals_reference_on_seeded_instances(block):
    for seed in range(block * BLOCK, (block + 1) * BLOCK):
        e, tol = skewed_instance(seed)
        assert check_no_arbitrage(e, tol) == reference_check_no_arbitrage(e, tol), seed


def test_verdict_matches_oracle_on_small_instances():
    compared = 0
    for seed in range(500):
        e, tol = skewed_instance(seed, n_hi=8)
        n = e.graph.n
        result = check_no_arbitrage(e, tol)
        # Between these bounds the verdicts may differ by design: the oracle
        # sums up to n chords' worth of gain per simple cycle and reads
        # fundamental cycles in its own orientation.
        if tol / (n * n) < result.max_abs_log_gain <= (n + 1) * tol:
            continue
        assert result.ok == check_no_arbitrage_oracle(e, tol).ok, seed
        compared += 1
    assert compared >= 300


@pytest.mark.parametrize("name", ["triangle_ok.csv", "triangle_bad.csv", "triangle_labeled.csv"])
@pytest.mark.parametrize("tol", TOLS)
def test_equals_reference_on_rates_corpus(name, tol):
    e = log_of(load_rates(DATA / name).matrix)
    assert check_no_arbitrage(e, tol) == reference_check_no_arbitrage(e, tol)


@pytest.mark.parametrize("name", ["k3.json", "k4.json"])
@pytest.mark.parametrize("seed", range(5))
def test_equals_reference_on_graph_corpus(name, seed):
    g = load_graph(DATA / name)
    arr = np.array(random_log_matrix(g, seed).entries)
    arr[0, 1] += 0.01 * seed
    e = LogRateMatrix(g, arr)
    assert check_no_arbitrage(e) == reference_check_no_arbitrage(e)


@pytest.mark.parametrize(
    "g",
    [
        generate_graph("complete", 60),
        generate_graph("pa", 300, m=3, seed=5),
        new_graph(300, [(v, v % 300 + 1) for v in range(1, 301)] + [(7, 151), (40, 260)]),
        # 30x30 grid: BFS tree 58 deep, 841 chords with cycles of many lengths
        new_graph(900, [(v, v + 1) for v in range(1, 901) if v % 30]
                  + [(v, v + 30) for v in range(1, 871)]),
    ],
    ids=["K60", "pa300", "ring300", "grid30"],
)
def test_equals_reference_on_larger_graphs(g):
    arr = np.array(random_log_matrix(g, 3).entries)
    ok = LogRateMatrix(g, arr)
    assert check_no_arbitrage(ok) == reference_check_no_arbitrage(ok)
    i, j = g.simple_edges[len(g.simple_edges) // 2]
    arr[i - 1, j - 1] += 1e-3
    arr[j - 1, i - 1] -= 1e-3
    bad = LogRateMatrix(g, arr)
    assert check_no_arbitrage(bad) == reference_check_no_arbitrage(bad)


def test_overflowing_gains_match_reference():
    g = generate_graph("complete", 5)
    arr = np.zeros((5, 5))
    for i, j in g.simple_edges:
        arr[i - 1, j - 1] = 1e308
        arr[j - 1, i - 1] = -1e308 if (i + j) % 2 else 1e308
    e = LogRateMatrix(g, arr)
    result = check_no_arbitrage(e)
    assert result.max_abs_log_gain == math.inf
    assert result == reference_check_no_arbitrage(e)


class TestTies:
    def test_equal_gains_pick_the_lowest_chord(self):
        # every chord through vertex 2 crosses the skewed tree edge (1, 2)
        g = generate_graph("complete", 6)
        arr = np.zeros((6, 6))
        arr[0, 1], arr[1, 0] = 0.25, -0.25
        e = LogRateMatrix(g, arr)
        result = check_no_arbitrage(e)
        assert result == reference_check_no_arbitrage(e)
        assert result.witness.cycle == (2, 3, 1, 2)
        assert result.witness.log_gain == 0.25

    def test_equal_gains_order_by_lower_endpoint_first(self):
        # chords (2, 5) and (3, 4) both gain 0.125; (2, 5) is the lower key
        g = generate_graph("complete", 6)
        arr = np.zeros((6, 6))
        for i, j in ((3, 4), (2, 5)):
            arr[i - 1, j - 1], arr[j - 1, i - 1] = 0.125, -0.125
        e = LogRateMatrix(g, arr)
        result = check_no_arbitrage(e)
        assert result == reference_check_no_arbitrage(e)
        assert result.witness.cycle == (2, 5, 1, 2)

    def test_antisymmetry_wins_over_its_own_chord(self):
        # a one-sided skew on chord (3, 5): its antisymmetry residual and its
        # cycle gain are both exactly 0.5
        g = generate_graph("complete", 6)
        arr = np.zeros((6, 6))
        arr[2, 4] = 0.5
        e = LogRateMatrix(g, arr)
        result = check_no_arbitrage(e)
        assert result == reference_check_no_arbitrage(e)
        assert result.witness.cycle == (3, 5, 3)
        assert result.witness.log_gain == 0.5
