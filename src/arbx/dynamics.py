"""Propagation of basis-rate perturbations to the full ensemble.

Perturbations are always expressed against a declared basis, never as raw
entry edits: which entries move directly is exactly the information a basis
encodes. Completion is linear, so the map from basis deltas to a full matrix
delta is completion of the deltas themselves: the delta-weighted sum of the
unit responses, computed in O(n + edge count) without forming any of them.
"""

from __future__ import annotations

import numpy as np

from .basis import BasisSpec, _complete, _entry_values
from .errors import GraphMismatchError, NotArbitrageFreeError, SpecMismatchError
from .exchange import DEFAULT_TOL, LogRateMatrix, RateMatrix, _dense, check_no_arbitrage, exp_of
from .graph import _Record, _set_fields


class PerturbationVector(_Record):
    """Per-coordinate log-domain shifts of a basis assignment."""

    spec: BasisSpec
    deltas: tuple[float, ...]

    def __post_init__(self) -> None:
        _set_fields(self, deltas=_entry_values(self.spec, self.deltas, "perturbation", "deltas"))


class PerturbationOperator(_Record, eq=False):
    """Linear map from basis-coordinate deltas to a full matrix delta.

    The map is completion over ``spec``, so the k-th unit vector maps to the
    k-th unit-response matrix exactly; no response matrix is stored.
    Construction raises :class:`~arbx.errors.NotABasisError` unless ``spec``
    is a basis.
    """

    spec: BasisSpec

    def __post_init__(self) -> None:
        self.spec._found  # the spec's search, which raises unless it is a basis


def build_operator(spec: BasisSpec) -> PerturbationOperator:
    """Perturbation operator of a basis; raises if ``spec`` is not a basis."""
    return PerturbationOperator(spec=spec)


def propagate_log(op: PerturbationOperator, d: PerturbationVector) -> LogRateMatrix:
    """Full log-domain delta for the given basis deltas.

    The result is itself arbitrage-free: it is the completion of the deltas
    over the operator's basis.
    """
    if d.spec != op.spec:
        raise SpecMismatchError("perturbation and operator use different bases")
    return _complete(op.spec, d.deltas)


def propagate_multiplicative_first_order(
    r: RateMatrix, d_log: LogRateMatrix
) -> np.ndarray:
    """First-order rate delta: each entry times its log delta.

    The multiplicative response to a log shift d is rate * (exp(d) - 1);
    to first order that is rate * d. The result is a dense read-only n x n
    array; non-edge coordinates come out 0.
    """
    return _dense(r.graph, _first_order_delta(r, d_log), 0.0)


def _first_order_delta(r: RateMatrix, d_log: LogRateMatrix) -> np.ndarray:
    # rate * log delta per directed edge, in edge-id order
    if r.graph != d_log.graph:
        raise GraphMismatchError("rates and delta live on different graphs")
    return r.values * d_log.values


def apply_exact(
    e: LogRateMatrix, d_log: LogRateMatrix, tol: float = DEFAULT_TOL
) -> tuple[LogRateMatrix, RateMatrix]:
    """Exact update: add the delta in log domain and re-exponentiate.

    Both inputs must pass the arbitrage check at ``tol``; their sum then
    stays within twice that tolerance, so repeated exact updates never leave
    the consistent region by more than accumulated rounding.
    """
    if e.graph != d_log.graph:
        raise GraphMismatchError("state and delta live on different graphs")
    for name, m in (("state", e), ("delta", d_log)):
        if not check_no_arbitrage(m, tol).ok:
            raise NotArbitrageFreeError(f"{name} matrix fails the arbitrage check")
    updated = LogRateMatrix._of(e.graph, e.values + d_log.values)
    return updated, exp_of(updated)
