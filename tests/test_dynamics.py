import math
import random
import tracemalloc

import numpy as np
import pytest

from arbx import (
    BasisSpec,
    GraphMismatchError,
    LogRateMatrix,
    NotArbitrageFreeError,
    PerturbationVector,
    SpecMismatchError,
    apply_exact,
    build_operator,
    canonical_basis,
    check_no_arbitrage,
    check_no_arbitrage_oracle,
    complete,
    epsilon_matrices,
    exp_of,
    generate_graph,
    log_of,
    new_graph,
    propagate_log,
    propagate_multiplicative_first_order,
)
from helpers import random_assignment, random_connected_graph, random_log_matrix

K3 = new_graph(3, [(1, 2), (2, 3), (1, 3)])


def unit_delta(spec, k, size=1.0):
    deltas = [0.0] * spec.size
    deltas[k] = size
    return PerturbationVector(spec=spec, deltas=tuple(deltas))


class TestOperator:
    def test_unit_delta_reproduces_response_exactly(self):
        for seed in range(8):
            g = random_connected_graph(seed)
            spec = canonical_basis(g)
            op = build_operator(spec)
            eps = epsilon_matrices(spec)
            for k in range(spec.size):
                out = propagate_log(op, unit_delta(spec, k))
                assert np.array_equal(out.entries, eps.matrices[k].entries)

    def test_zero_delta(self):
        spec = canonical_basis(K3)
        out = propagate_log(build_operator(spec), PerturbationVector(spec=spec, deltas=(0.0, 0.0)))
        assert np.all(out.entries == 0.0)

    def test_single_vertex_graph(self):
        g = new_graph(1, [])
        spec = canonical_basis(g)
        out = propagate_log(build_operator(spec), PerturbationVector(spec=spec, deltas=()))
        assert out.entries.shape == (1, 1)
        assert np.all(out.entries == 0.0)

    def test_linearity(self):
        rng = random.Random(2)
        g = random_connected_graph(4, require_chord=True)
        spec = canonical_basis(g)
        op = build_operator(spec)
        d1 = PerturbationVector(spec=spec, deltas=tuple(rng.uniform(-1, 1) for _ in range(spec.size)))
        d2 = PerturbationVector(spec=spec, deltas=tuple(rng.uniform(-1, 1) for _ in range(spec.size)))
        c = 1.7
        mixed = PerturbationVector(
            spec=spec, deltas=tuple(a + c * b for a, b in zip(d1.deltas, d2.deltas))
        )
        lhs = propagate_log(op, d1).entries + c * propagate_log(op, d2).entries
        assert np.max(np.abs(lhs - propagate_log(op, mixed).entries)) < 1e-12

    def test_scaling_tiny_delta(self):
        g = random_connected_graph(6, require_chord=True)
        spec = canonical_basis(g)
        op = build_operator(spec)
        eps = epsilon_matrices(spec)
        out = propagate_log(op, unit_delta(spec, 0, size=1e-3))
        assert np.max(np.abs(out.entries - 1e-3 * eps.matrices[0].entries)) < 1e-15

    def test_matches_complete(self):
        for seed in range(8):
            g = random_connected_graph(seed)
            a = random_assignment(g, seed)
            via_operator = propagate_log(
                build_operator(a.spec), PerturbationVector(spec=a.spec, deltas=a.values)
            )
            assert np.max(np.abs(via_operator.entries - complete(a).entries)) < 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_output_in_consistent_space(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(seed, n_hi=7)
        spec = canonical_basis(g)
        d = PerturbationVector(spec=spec, deltas=tuple(rng.uniform(-1, 1) for _ in range(spec.size)))
        out = propagate_log(build_operator(spec), d)
        assert check_no_arbitrage_oracle(out).ok

    def test_memory_linear_in_graph(self):
        # a dense (t, n, n) response stack would take about 215 MB here
        g = generate_graph("pa", 300, m=3, seed=1)
        spec = canonical_basis(g)
        d = PerturbationVector(spec=spec, deltas=tuple(0.001 * k for k in range(spec.size)))
        tracemalloc.start()
        try:
            propagate_log(build_operator(spec), d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2**20

    def test_spec_mismatch(self):
        g = generate_graph("complete", 4)
        other = BasisSpec(graph=g, entries=((2, 1), (2, 3), (2, 4)))
        op = build_operator(canonical_basis(g))
        with pytest.raises(SpecMismatchError):
            propagate_log(op, PerturbationVector(spec=other, deltas=(0.0, 0.0, 0.0)))


class TestFirstOrder:
    def test_zero_delta_zero_response(self):
        g = random_connected_graph(1)
        r = exp_of(random_log_matrix(g, 1))
        zero = LogRateMatrix(g, np.zeros((g.n, g.n)))
        assert np.all(propagate_multiplicative_first_order(r, zero) == 0.0)

    def test_single_entry_arithmetic(self):
        g = new_graph(2, [(1, 2)])
        r = exp_of(LogRateMatrix.from_values(g, {(1, 2): math.log(2), (2, 1): -math.log(2)}))
        d = LogRateMatrix.from_values(g, {(1, 2): 0.01})
        delta = propagate_multiplicative_first_order(r, d)
        assert delta[0, 1] == pytest.approx(0.02, abs=1e-15)
        assert delta[1, 0] == 0.0

    def test_graph_mismatch(self):
        r = exp_of(LogRateMatrix(K3, np.zeros((3, 3))))
        d = LogRateMatrix(new_graph(3, [(1, 2), (2, 3)]), np.zeros((3, 3)))
        with pytest.raises(GraphMismatchError):
            propagate_multiplicative_first_order(r, d)

    def test_halving_step_quarters_error(self):
        g = random_connected_graph(9, require_chord=True)
        e = random_log_matrix(g, 9, scale=1.0)
        r = exp_of(e)
        direction = random_log_matrix(g, 10, scale=1.0)

        def remainder(step):
            d = LogRateMatrix(g, step * direction.entries)
            exact = exp_of(LogRateMatrix(g, e.entries + d.entries)).entries
            linear = r.entries + propagate_multiplicative_first_order(r, d)
            return np.max(np.abs(exact - linear))

        ratio = remainder(1e-3) / remainder(5e-4)
        assert 3.5 <= ratio <= 4.5


class TestApplyExact:
    def test_zero_delta_identity(self):
        g = random_connected_graph(2)
        e = random_log_matrix(g, 2)
        zero = LogRateMatrix(g, np.zeros((g.n, g.n)))
        e2, r2 = apply_exact(e, zero)
        assert np.array_equal(e2.entries, e.entries)
        assert np.allclose(r2.entries, exp_of(e).entries, rtol=0, atol=0)

    def test_inverse_perturbation(self):
        g = random_connected_graph(3)
        e = random_log_matrix(g, 3)
        inverse = LogRateMatrix(g, -e.entries)
        e2, r2 = apply_exact(e, inverse)
        assert np.all(e2.entries == 0.0)
        assert np.all(r2.entries == 1.0)

    def test_rejects_inconsistent_state(self):
        g = generate_graph("complete", 4)
        e = random_log_matrix(g, 4)
        bad = e.with_entry(1, 2, e.value(1, 2) + 1e-3)
        zero = LogRateMatrix(g, np.zeros((4, 4)))
        with pytest.raises(NotArbitrageFreeError):
            apply_exact(bad, zero)
        with pytest.raises(NotArbitrageFreeError):
            apply_exact(e, bad.with_entry(1, 2, 1e-3))

    def test_graph_mismatch(self):
        e = LogRateMatrix(K3, np.zeros((3, 3)))
        d = LogRateMatrix(new_graph(3, [(1, 2), (2, 3)]), np.zeros((3, 3)))
        with pytest.raises(GraphMismatchError):
            apply_exact(e, d)

    @pytest.mark.parametrize("seed", range(6))
    def test_update_stays_consistent(self, seed):
        g = random_connected_graph(seed, n_hi=7)
        e = random_log_matrix(g, seed)
        d = random_log_matrix(g, seed + 50, scale=0.1)
        e2, _ = apply_exact(e, d)
        assert check_no_arbitrage_oracle(e2, tol=2e-9).ok

    def test_log_of_exp_of_composition(self):
        g = random_connected_graph(8)
        e = random_log_matrix(g, 8)
        d = random_log_matrix(g, 88, scale=0.2)
        _, r2 = apply_exact(e, d)
        assert check_no_arbitrage(log_of(r2), tol=2e-9).ok
