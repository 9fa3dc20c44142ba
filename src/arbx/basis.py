"""Minimal determining entry sets (bases), matrix completion, unit-response
matrices, coefficient extraction, and the price-potential representation.

A set of entry coordinates is a basis exactly when its undirected edges form
a spanning tree of the graph: tree entries are free, every chord entry is
then forced by its fundamental cycle, and a non-spanning set leaves some
component's relative prices undetermined. :func:`dimension_by_rank` recounts
the dimension by exact rational elimination over the fundamental cycles; each
holds its own chord, so their rank is the chord count by construction.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    BadParamsError,
    GraphMismatchError,
    LengthMismatchError,
    NotABasisError,
    NotArbitrageFreeError,
    NotCompleteError,
    OracleSizeError,
)
from .exchange import DEFAULT_TOL, LogRateMatrix, _check, check_no_arbitrage
from .graph import (
    ORACLE_MAX_VERTICES,
    MarketGraph,
    TreeArrays,
    _Record,
    _climb,
    _connected_tree,
    _set_fields,
    _spanning_entries,
    _vertex,
    _vertex_pairs,
    fundamental_cycles,
    spanning_tree,
)


class BasisSpec(_Record):
    """Ordered entry coordinates meant to determine a whole matrix.

    A spec is just a record; :func:`is_basis` decides validity. It holds its
    pairs as an array, compares and hashes by its graph and that array, and
    builds ``entries`` only when it is first read; the search that makes it
    a basis runs once, when a completion first needs it.
    """

    graph: MarketGraph
    entries: tuple[tuple[int, int], ...]

    _KEY = ("graph", "_pairs")

    def __post_init__(self) -> None:
        pairs, fault = _vertex_pairs(vars(self).pop("entries"), "entry", self.graph.n)
        if fault is not None:
            raise fault
        _set_fields(self, _pairs=pairs)

    @cached_property
    def entries(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(*self._pairs.T.tolist()))

    @property
    def size(self) -> int:
        return len(self._pairs)

    @cached_property
    def _found(self) -> tuple[np.ndarray, TreeArrays]:
        # the basis's edge ids and the search tree's arrays that _climb reads,
        # found once per spec
        found = _spanning_entries(self.graph, self._pairs, NotABasisError)
        if found is None:
            raise NotABasisError("entries do not form a spanning tree of the graph")
        return found[0], found[1]._replace(depth=None, to_parent=None)


class BasisAssignment(_Record):
    """Log-domain values pinned at a spec's coordinates."""

    spec: BasisSpec
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        _set_fields(self, values=_entry_values(self.spec, self.values, "basis", "values"))


def _entry_values(spec: BasisSpec, values, owner: str, noun: str) -> tuple[float, ...]:
    """``values`` as floats, one per entry of ``spec``, all finite; errors
    call them ``noun``, and "{owner} {noun}" where they are not finite."""
    vals = tuple(map(float, values))
    if len(vals) != spec.size:
        raise LengthMismatchError(f"{spec.size} basis entries but {len(vals)} {noun}")
    if not all(map(math.isfinite, vals)):
        raise BadParamsError(f"{owner} {noun} must be finite")
    return vals


class EpsilonBasis(_Record, eq=False):
    """Unit-response matrices: the k-th has 1 at the k-th basis coordinate and
    0 at every other basis coordinate, exactly."""

    spec: BasisSpec
    matrices: tuple[LogRateMatrix, ...]


class PriceVector(_Record):
    """Potential representation: prices[j-1] - prices[i-1] recovers entry (i, j).

    The reference good has price exactly 0; choosing another reference shifts
    every price by the same constant.
    """

    reference: int
    prices: tuple[float, ...]

    def __post_init__(self) -> None:
        prices = tuple(map(float, self.prices))
        _set_fields(self, reference=_vertex(self.reference, len(prices), "reference"), prices=prices)._zero_at_reference()

    def _zero_at_reference(self) -> PriceVector:
        if self.prices[self.reference - 1] != 0.0:
            raise BadParamsError("the reference price must be exactly 0")
        return self


def canonical_basis(g: MarketGraph) -> BasisSpec:
    """Basis on the deterministic spanning tree.

    Entries are oriented (parent, child) and ordered by child index, so a
    given graph always gets the same basis.
    """
    parents = _connected_tree(g).parent[1:] + 1
    return BasisSpec(graph=g, entries=np.column_stack((parents, np.arange(2, g.n + 1))))


def row_basis(g: MarketGraph, k: int) -> BasisSpec:
    """Star basis (k, j) for every j != k; complete graphs only."""
    k = _vertex(k, g.n)
    if g._lo.size != g.n * (g.n - 1) // 2:
        raise NotCompleteError("row bases need every pair of goods to trade")
    return BasisSpec(graph=g, entries=tuple((k, j) for j in range(1, g.n + 1) if j != k))


def is_basis(g: MarketGraph, entries: Sequence[tuple[int, int]]) -> bool:
    """True iff the entries' undirected edges form a spanning tree of ``g``.

    Loop coordinates are pinned to zero and can never belong to a basis;
    repeating an undirected edge (in either orientation) disqualifies the
    set. A coordinate that is not an edge at all raises
    :class:`~arbx.errors.NotAnEdgeError`, naming the first such entry.
    """
    return _spanning_entries(g, entries) is not None


def _differences(g: MarketGraph, prices: Sequence[float] | np.ndarray) -> np.ndarray:
    # edge values in edge-id order: prices[j-1] - prices[i-1] for (i, j), 0 on loops
    p = np.asarray(prices, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # the constructor rejects non-finite
        forward = p[g._hi] - p[g._lo]
    return np.concatenate([forward, -forward, np.zeros(g._loop_array.size)])


def _complete(spec: BasisSpec, values: Sequence[float]) -> LogRateMatrix:
    # the completion over the basis of a spec
    g, (ids, tree) = spec.graph, spec._found
    basis = np.array(values, dtype=float)
    # the search steps along entry k as pair k and against it as pair m + k
    out = _differences(g, _climb(tree, np.concatenate([basis, -basis])))
    # basis coordinates carry the assigned values exactly, not via potentials
    e = g._lo.size
    out[ids], out[np.where(ids < e, ids + e, ids - e)] = basis, -basis
    return LogRateMatrix._of(g, out)


def complete(a: BasisAssignment) -> LogRateMatrix:
    """The unique arbitrage-free matrix carrying the assignment's values at
    its basis coordinates.

    Works through the price potential: the basis tree fixes one potential
    difference per entry, and every remaining edge entry is the potential
    difference of its endpoints, which is what path independence forces.
    Runs in O(n + edge count) work, one numpy pass per large level of the
    basis tree and good by good along small ones, and is bit-for-bit
    deterministic.
    """
    return _complete(a.spec, a.values)


def epsilon_matrices(spec: BasisSpec) -> EpsilonBasis:
    """One completion per basis coordinate: a unit there, zero at the rest.

    These matrices form a linear basis of the arbitrage-free space, and the
    coordinate read-off property holds exactly, not within tolerance.
    """
    spec._found  # a spec that is no basis raises before any matrix
    units = (np.arange(spec.size) == k for k in range(spec.size))
    return EpsilonBasis(spec=spec, matrices=tuple(_complete(spec, unit) for unit in units))


def decompose(
    e: LogRateMatrix, spec: BasisSpec, tol: float = DEFAULT_TOL
) -> list[float]:
    """Coefficients of ``e`` in the spec's unit-response basis.

    Read directly off the basis coordinates; no system is solved. The sum of
    coefficient-weighted unit responses reproduces ``e``.
    """
    ids = spec._found[0]
    if e.graph != spec.graph:
        raise GraphMismatchError("matrix and basis live on different graphs")
    if not check_no_arbitrage(e, tol).ok:
        raise NotArbitrageFreeError("matrix fails the arbitrage check")
    return e.values[ids].tolist()


def dimension(g: MarketGraph) -> int:
    """Dimension of the arbitrage-free space: one degree of freedom per tree edge."""
    _connected_tree(g)
    return g.n - 1


def dimension_by_rank(g: MarketGraph, *, max_n: int = ORACLE_MAX_VERTICES) -> int:
    """The dimension by exact elimination over the fundamental cycles.

    One variable per undirected non-loop edge (antisymmetry already folded
    in), one zero-sum constraint per fundamental cycle, coefficients +-1;
    the dimension is the edge count minus the exact rank of the constraint
    system over the rationals. No floating-point judgment is involved. Each
    row holds its own chord and no other, so the rank is the chord count by
    construction: the check that does not depend on the tree is
    ``tests/test_basis.py::TestDimension::test_all_cycles_add_no_rank``,
    which ranks every simple cycle (n <= 6).
    """
    from fractions import Fraction  # only here: keeps fractions and decimal out of a CLI run

    if g.n > max_n:
        raise OracleSizeError(f"{g.n} vertices exceeds the oracle limit of {max_n}")
    tree = spanning_tree(g)
    edges = g.simple_edges
    index = {e: k for k, e in enumerate(edges)}
    rows: list[list[Fraction]] = []
    for fc in fundamental_cycles(g, tree):
        row = [Fraction(0)] * len(edges)
        for u, v in zip(fc.cycle, fc.cycle[1:]):
            if u < v:
                row[index[(u, v)]] += 1
            else:
                row[index[(v, u)]] -= 1
        rows.append(row)
    return len(edges) - _rank(rows)


def _rank(rows: list[list]) -> int:
    if not rows:
        return 0
    mat = [row[:] for row in rows]
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        lead = mat[rank][col]
        for r in range(rank + 1, len(mat)):
            f = mat[r][col] / lead
            if f:
                for c in range(col, ncols):
                    mat[r][c] -= f * mat[rank][c]
        rank += 1
        if rank == len(mat):
            break
    return rank


def price_vector(e: LogRateMatrix, ref: int, tol: float = DEFAULT_TOL) -> PriceVector:
    """Potential representation of an arbitrage-free matrix, zero at ``ref``.

    Prices substitute for a universal denomination on markets that lack one:
    entry (i, j) equals prices[j-1] - prices[i-1] on every edge. They are
    computed once along the deterministic spanning tree and shifted, so a
    change of reference moves all prices by the same constant.
    """
    ref = _vertex(ref, e.graph.n, "reference vertex")
    # the prices are floats already: built past the constructor, not converted again
    return _set_fields(object.__new__(PriceVector), reference=ref, prices=tuple(_prices(e, ref, tol).tolist()))._zero_at_reference()


def _prices(e: LogRateMatrix, ref: int, tol: float) -> np.ndarray:
    """:func:`price_vector`'s prices as an array, ``ref`` a vertex of ``e``'s graph."""
    result, p = _check(e, tol)  # the check's potentials are the prices
    if not result.ok:
        raise NotArbitrageFreeError("matrix fails the arbitrage check")
    with np.errstate(invalid="ignore"):  # inf - inf, which PriceVector rejects
        return p - p[ref - 1]


def matrix_from_prices(
    g: MarketGraph, p: PriceVector | Sequence[float]
) -> LogRateMatrix:
    """Matrix of potential differences: entry (i, j) = p[j] - p[i] on edges,
    0 elsewhere.

    The output is arbitrage-free for any prices whatsoever, since every
    cycle sum telescopes away.
    """
    prices = tuple(p.prices) if isinstance(p, PriceVector) else tuple(map(float, p))
    if len(prices) != g.n:
        raise LengthMismatchError(f"expected {g.n} prices, got {len(prices)}")
    return LogRateMatrix._of(g, _differences(g, prices))
