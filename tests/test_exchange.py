import math
import random
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from arbx import (
    BadParamsError,
    LogRateMatrix,
    NotAnEdgeError,
    NotAWalkError,
    NotClosedError,
    NotConnectedError,
    RateMatrix,
    canonical_basis,
    check_antisymmetry,
    check_no_arbitrage,
    check_no_arbitrage_oracle,
    cycle_gain,
    cycle_log_gain,
    exp_of,
    fundamental_cycles,
    generate_graph,
    log_of,
    new_graph,
    spanning_tree,
)
from helpers import chords_of, random_connected_graph, random_log_matrix

K2 = new_graph(2, [(1, 2)])
K3 = new_graph(3, [(1, 2), (2, 3), (1, 3)])


def k3_log(a, b, c):
    """Antisymmetric K_3 log matrix with entries a=(1,2), b=(2,3), c=(3,1)."""
    return LogRateMatrix.from_values(
        K3, {(1, 2): a, (2, 1): -a, (2, 3): b, (3, 2): -b, (3, 1): c, (1, 3): -c}
    )


class TestMatrixTypes:
    def test_rate_matrix_rejects_nonpositive(self):
        with pytest.raises(BadParamsError):
            RateMatrix(K2, [[1.0, 0.0], [1.0, 1.0]])
        with pytest.raises(BadParamsError):
            RateMatrix(K2, [[1.0, math.inf], [1.0, 1.0]])

    def test_rate_matrix_rejects_absent_entry(self):
        g = new_graph(3, [(1, 2)])
        arr = np.ones((3, 3))
        arr[1, 2] = 2.0  # (2, 3) is not an edge
        with pytest.raises(BadParamsError):
            RateMatrix(g, arr)

    def test_log_matrix_rejects_absent_entry(self):
        g = new_graph(3, [(1, 2)])
        arr = np.zeros((3, 3))
        arr[2, 2] = 1e-18  # no loop at vertex 3
        with pytest.raises(BadParamsError):
            LogRateMatrix(g, arr)

    def test_from_values_rejects_non_edge(self):
        with pytest.raises(NotAnEdgeError):
            LogRateMatrix.from_values(new_graph(3, [(1, 2)]), {(2, 3): 1.0})

    @pytest.mark.parametrize("bad", [(1, 3), (3, 1), (0, 1), (1, 4), (-1, 2), (10**30, 1), (1.5, 2)])
    @pytest.mark.parametrize("build", [RateMatrix.from_quotes, LogRateMatrix.from_values])
    def test_first_non_edge_in_order_is_named(self, build, bad):
        g = new_graph(3, [(1, 2), (2, 3), (2, 2)])
        keyed = {(1, 2): 1.0, (2, 2): 1.0, bad: 1.0, (2, 3): 1.0, (3, 3): 1.0}
        with pytest.raises(NotAnEdgeError, match=re.escape(f"{bad} is not an edge")):
            build(g, keyed)

    @pytest.mark.parametrize("keyed", [{(1, 2, 2, 3): 2.0}, {(1, 2, 3): 2.0, (1,): 3.0}])
    @pytest.mark.parametrize("build", [RateMatrix.from_quotes, LogRateMatrix.from_values])
    def test_key_that_is_not_a_pair_is_rejected(self, build, keyed):
        g = new_graph(3, [(1, 2), (2, 3), (1, 3)])
        with pytest.raises(NotAnEdgeError, match=re.escape(f"{next(iter(keyed))} is not an edge")):
            build(g, keyed)

    def test_entries_are_read_only(self):
        e = LogRateMatrix.from_values(K2, {(1, 2): 1.0})
        with pytest.raises(ValueError):
            e.entries[0, 1] = 2.0

    def test_with_entry(self):
        e = LogRateMatrix.from_values(K2, {(1, 2): 1.0})
        e2 = e.with_entry(1, 2, 3.0)
        assert e.value(1, 2) == 1.0 and e2.value(1, 2) == 3.0
        with pytest.raises(NotAnEdgeError):
            e.with_entry(1, 1, 0.5)


class TestLogExp:
    def test_all_ones_to_zeros(self):
        r = RateMatrix(K3, np.ones((3, 3)))
        assert np.all(log_of(r).entries == 0.0)

    def test_reciprocal_pair(self):
        r = RateMatrix.from_quotes(K2, {(1, 2): 2.0, (2, 1): 0.5})
        e = log_of(r)
        assert e.value(1, 2) == pytest.approx(math.log(2), abs=1e-15)
        assert e.value(2, 1) == pytest.approx(-math.log(2), abs=1e-15)

    def test_exp_of_zero_is_ones(self):
        e = LogRateMatrix(K3, np.zeros((3, 3)))
        assert np.all(exp_of(e).entries == 1.0)

    def test_exp_single_entry(self):
        e = LogRateMatrix.from_values(K2, {(1, 2): math.log(3)})
        assert exp_of(e).rate(1, 2) == pytest.approx(3.0, abs=1e-12)

    def test_round_trips(self):
        rng = random.Random(5)
        for seed in range(10):
            g = random_connected_graph(seed)
            arr = np.ones((g.n, g.n))
            for i, j in g.simple_edges:
                arr[i - 1, j - 1] = rng.uniform(0.1, 10.0)
                arr[j - 1, i - 1] = rng.uniform(0.1, 10.0)
            r = RateMatrix(g, arr)
            back = exp_of(log_of(r))
            assert np.allclose(back.entries, r.entries, rtol=1e-12, atol=0)
            e = random_log_matrix(g, seed)
            assert np.allclose(log_of(exp_of(e)).entries, e.entries, atol=1e-12)

    def test_exp_overflow(self):
        e = LogRateMatrix.from_values(K2, {(1, 2): 800.0, (2, 1): -800.0})
        with pytest.raises(OverflowError):
            exp_of(e)


class TestCycleGains:
    def test_loop_walk_without_loop_edge(self):
        e = LogRateMatrix(K2, np.zeros((2, 2)))
        with pytest.raises(NotAWalkError):
            cycle_log_gain(e, (1, 1))

    def test_not_closed(self):
        e = LogRateMatrix(K3, np.zeros((3, 3)))
        with pytest.raises(NotClosedError):
            cycle_log_gain(e, (1, 2, 3))

    def test_non_edge_step(self):
        e = LogRateMatrix(new_graph(3, [(1, 2), (2, 3)]), np.zeros((3, 3)))
        with pytest.raises(NotAWalkError):
            cycle_log_gain(e, (1, 3, 1))

    def test_antisymmetric_pair_cancels(self):
        e = LogRateMatrix.from_values(K2, {(1, 2): math.log(2), (2, 1): -math.log(2)})
        assert cycle_log_gain(e, (1, 2, 1)) == 0.0

    def test_triangle_sum(self):
        e = k3_log(0.3, -1.1, 2.4)
        assert cycle_log_gain(e, (1, 2, 3, 1)) == pytest.approx(0.3 - 1.1 + 2.4, abs=1e-15)

    def test_multiplicative_triangle(self):
        r = RateMatrix.from_quotes(
            K3, {(1, 2): 2.0, (2, 3): 3.0, (3, 1): 1 / 6, (2, 1): 0.5, (3, 2): 1 / 3, (1, 3): 6.0}
        )
        assert cycle_gain(r, (1, 2, 3, 1)) == pytest.approx(1.0, abs=1e-12)

    def test_multiplicative_arbitrage(self):
        r = RateMatrix.from_quotes(K3, {(1, 2): 2.0, (2, 3): 3.0, (3, 1): 0.2})
        assert cycle_gain(r, (1, 2, 3, 1)) == pytest.approx(1.2, abs=1e-12)

    def test_gain_matches_exp_of_log_gain(self):
        for seed in range(10):
            g = random_connected_graph(seed, require_chord=True)
            e = random_log_matrix(g, seed + 100)
            r = exp_of(e)
            walk = fundamental_cycles(g, spanning_tree(g))[0].cycle
            assert cycle_gain(r, walk) == pytest.approx(
                math.exp(cycle_log_gain(e, walk)), rel=1e-12
            )


class TestAntisymmetry:
    def test_completed_matrix_is_ok(self):
        e = random_log_matrix(random_connected_graph(3), 17)
        assert check_antisymmetry(e) == []

    def test_symmetric_entries_violate(self):
        e = LogRateMatrix.from_values(K2, {(1, 2): 1.0, (2, 1): 1.0})
        bad = check_antisymmetry(e)
        assert len(bad) == 1
        assert bad[0].pair == (1, 2)
        assert bad[0].residual == pytest.approx(2.0)

    def test_small_diagonal_within_tolerance(self):
        g = new_graph(2, [(1, 2), {1}])
        e = LogRateMatrix.from_values(g, {(1, 1): 1e-15})
        assert check_antisymmetry(e, tol=1e-9) == []
        assert len(check_antisymmetry(e, tol=1e-16)) == 1

    def test_tolerance_must_be_positive(self):
        e = LogRateMatrix(K2, np.zeros((2, 2)))
        with pytest.raises(BadParamsError):
            check_antisymmetry(e, tol=0.0)

    @pytest.mark.parametrize("check", [check_antisymmetry, check_no_arbitrage, check_no_arbitrage_oracle])
    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-9])
    def test_tolerance_must_be_finite_and_positive(self, check, tol):
        e = k3_log(1.0, 1.0, 1.0)
        with pytest.raises(BadParamsError):
            check(e, tol=tol)


class TestCheckNoArbitrage:
    def test_consistent_triangle(self):
        e = k3_log(math.log(2), math.log(3), -math.log(6))
        res = check_no_arbitrage(e)
        assert res.ok and res.witness is None

    def test_inconsistent_triangle_witness(self):
        e = k3_log(math.log(2), math.log(3), -math.log(5))
        res = check_no_arbitrage(e)
        assert not res.ok
        assert res.witness.log_gain == pytest.approx(math.log(6 / 5), abs=1e-12)
        assert res.witness.multiplicative_gain == pytest.approx(1.2, abs=1e-12)
        assert res.witness.cycle == (2, 3, 1, 2)

    def test_any_antisymmetric_tree_matrix_is_ok(self):
        rng = random.Random(9)
        for seed in range(10):
            g = generate_graph("tree", rng.randint(1, 9), seed=seed)
            values = {}
            for i, j in g.simple_edges:
                v = rng.uniform(-3, 3)
                values[(i, j)] = v
                values[(j, i)] = -v
            e = LogRateMatrix.from_values(g, values)
            assert check_no_arbitrage(e).ok

    def test_antisymmetry_violation_reported_as_two_walk(self):
        e = LogRateMatrix.from_values(K2, {(1, 2): 1.0, (2, 1): 1.0})
        res = check_no_arbitrage(e)
        assert not res.ok
        assert res.witness.cycle == (1, 2, 1)
        assert res.witness.log_gain == pytest.approx(2.0)

    def test_loop_entry_violation(self):
        g = new_graph(2, [(1, 2), {2}])
        e = LogRateMatrix.from_values(g, {(2, 2): 0.01})
        res = check_no_arbitrage(e)
        assert not res.ok
        assert res.witness.cycle == (2, 2)

    def test_disconnected_rejected(self):
        g = new_graph(4, [(1, 2), (3, 4)])
        with pytest.raises(NotConnectedError):
            check_no_arbitrage(LogRateMatrix(g, np.zeros((4, 4))))

    def test_witness_is_largest_gain(self):
        g = generate_graph("complete", 4)
        e = random_log_matrix(g, 23)
        chords = chords_of(g, canonical_basis(g))
        assert len(chords) >= 2
        e = e.with_entry(*chords[0], e.value(*chords[0]) + 1e-3)
        e = e.with_entry(*chords[1], e.value(*chords[1]) + 5e-3)
        res = check_no_arbitrage(e)
        assert not res.ok
        assert res.max_abs_log_gain == pytest.approx(5e-3, rel=1e-6)


class TestOracleAgreement:
    @pytest.mark.parametrize("seed", range(30))
    def test_verdicts_agree(self, seed):
        rng = random.Random(seed + 1000)
        g = random_connected_graph(seed, n_hi=7, require_chord=True)
        e = random_log_matrix(g, seed)
        perturbed = seed % 2 == 1
        if perturbed:
            chord = rng.choice(chords_of(g, canonical_basis(g)))
            delta = rng.choice([-1e-3, 1e-3])
            if seed % 4 == 1:  # antisymmetric perturbation: pure cycle violation
                e = e.with_entry(*chord, e.value(*chord) + delta)
                e = e.with_entry(chord[1], chord[0], e.value(chord[1], chord[0]) - delta)
            else:
                e = e.with_entry(*chord, e.value(*chord) + delta)
        fast = check_no_arbitrage(e, tol=1e-9)
        slow = check_no_arbitrage_oracle(e, tol=1e-9)
        assert fast.ok == slow.ok == (not perturbed)

    def test_k4_consistent_instance_checks_every_cycle(self):
        g = generate_graph("complete", 4)
        e = random_log_matrix(g, 99)
        res = check_no_arbitrage_oracle(e)
        assert res.ok
        assert res.cycles_checked == 6 + 7  # antisymmetry pairs + simple cycles

    @pytest.mark.parametrize("seed", range(10))
    def test_verdicts_agree_with_loops(self, seed):
        rng = random.Random(seed)
        base = random_connected_graph(seed, n_hi=6, require_chord=True)
        loops = rng.sample(range(1, base.n + 1), rng.randint(1, base.n))
        g = new_graph(base.n, list(base.edges) + [(v, v) for v in loops])
        arr = np.array(random_log_matrix(base, seed).entries)
        dirty = seed % 2 == 1
        if dirty:
            v = rng.choice(loops)
            arr[v - 1, v - 1] = 1e-3  # a loop rate away from 1 is a round trip gain
        e = LogRateMatrix(g, arr)
        fast = check_no_arbitrage(e, tol=1e-9)
        slow = check_no_arbitrage_oracle(e, tol=1e-9)
        assert fast.ok == slow.ok == (not dirty)


class TestAlgebraicProperties:
    @given(st.integers(0, 500), st.floats(-4, 4, allow_nan=False))
    def test_closure_under_linear_combination(self, seed, c):
        g = random_connected_graph(seed)
        e1 = random_log_matrix(g, seed)
        e2 = random_log_matrix(g, seed + 1)
        combined = LogRateMatrix(g, e1.entries + c * e2.entries)
        assert check_no_arbitrage(combined, tol=(1 + abs(c)) * 1e-9).ok

    @given(st.integers(0, 500))
    def test_reversal_negates_gain(self, seed):
        g = random_connected_graph(seed, require_chord=True)
        e = random_log_matrix(g, seed)
        for fc in fundamental_cycles(g, spanning_tree(g)):
            fwd = cycle_log_gain(e, fc.cycle)
            rev = cycle_log_gain(e, fc.cycle[::-1])
            assert rev == pytest.approx(-fwd, abs=1e-12)

    @given(st.integers(0, 500))
    def test_walk_fragmentation(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(seed, require_chord=True)
        e = random_log_matrix(g, seed + 7)
        # random wander, closed by a breadth-first shortest path back to start
        walk = [rng.randint(1, g.n)]
        for _ in range(rng.randint(3, 12)):
            walk.append(rng.choice(g.neighbors(walk[-1])))
        walk.extend(_shortest_path(g, walk[-1], walk[0])[1:])
        if len(walk) < 2 or len(set(walk)) == len(walk) - 1:
            return  # no repeated interior vertex this draw
        total = cycle_log_gain(e, walk)
        fragments = _fragment(walk)
        assert total == pytest.approx(
            sum(cycle_log_gain(e, f) for f in fragments), abs=1e-12
        )


def _shortest_path(g, a, b):
    from collections import deque

    prev = {a: None}
    queue = deque([a])
    while queue:
        u = queue.popleft()
        if u == b:
            break
        for w in g.neighbors(u):
            if w not in prev:
                prev[w] = u
                queue.append(w)
    path = [b]
    while prev[path[-1]] is not None:
        path.append(prev[path[-1]])
    return path[::-1]


def _fragment(walk):
    """Split a closed walk at repeated vertices into simple closed walks."""
    stack = [walk[0]]
    fragments = []
    for v in walk[1:]:
        if v in stack:
            cut = stack.index(v)
            fragment = stack[cut:] + [v]
            if len(fragment) > 1:
                fragments.append(fragment)
            del stack[cut + 1 :]
        else:
            stack.append(v)
    assert stack == [walk[0]]
    return fragments
