"""Minimal determining entry sets (bases), matrix completion, unit-response
matrices, coefficient extraction, and the price-potential representation.

A set of entry coordinates is a basis exactly when its undirected edges form
a spanning tree of the graph: tree entries are free, every chord entry is
then forced by its fundamental cycle, and a non-spanning set leaves some
component's relative prices undetermined. :func:`dimension_by_rank` verifies
the resulting dimension count independently, by exact rational elimination.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import (
    BadParamsError,
    GraphIndexError,
    GraphMismatchError,
    LengthMismatchError,
    NotABasisError,
    NotAnEdgeError,
    NotArbitrageFreeError,
    NotCompleteError,
    NotConnectedError,
    OracleSizeError,
)
from .exchange import DEFAULT_TOL, LogRateMatrix, check_no_arbitrage
from .graph import (
    ORACLE_MAX_VERTICES,
    MarketGraph,
    fundamental_cycles,
    is_connected,
    spanning_tree,
)


@dataclass(frozen=True)
class BasisSpec:
    """Ordered entry coordinates meant to determine a whole matrix.

    A spec is just a record; :func:`is_basis` decides validity.
    """

    graph: MarketGraph
    entries: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "entries", tuple((int(i), int(j)) for i, j in self.entries)
        )

    @property
    def size(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class BasisAssignment:
    """Log-domain values pinned at a spec's coordinates."""

    spec: BasisSpec
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        if len(vals) != self.spec.size:
            raise LengthMismatchError(
                f"{self.spec.size} basis entries but {len(vals)} values"
            )
        if not all(math.isfinite(v) for v in vals):
            raise BadParamsError("basis values must be finite")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True, eq=False)
class EpsilonBasis:
    """Unit-response matrices: the k-th has 1 at the k-th basis coordinate and
    0 at every other basis coordinate, exactly."""

    spec: BasisSpec
    matrices: tuple[LogRateMatrix, ...]


@dataclass(frozen=True)
class PriceVector:
    """Potential representation: prices[j-1] - prices[i-1] recovers entry (i, j).

    The reference good has price exactly 0; choosing another reference shifts
    every price by the same constant.
    """

    reference: int
    prices: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(x) for x in self.prices)
        object.__setattr__(self, "prices", vals)
        if not 1 <= self.reference <= len(vals):
            raise GraphIndexError(f"reference {self.reference} out of range")
        if vals[self.reference - 1] != 0.0:
            raise BadParamsError("the reference price must be exactly 0")


def canonical_basis(g: MarketGraph) -> BasisSpec:
    """Basis on the deterministic spanning tree.

    Entries are oriented (parent, child) and ordered by child index, so a
    given graph always gets the same basis.
    """
    tree = spanning_tree(g)
    entries = tuple((tree.parent[c], c) for c in sorted(tree.parent))
    return BasisSpec(graph=g, entries=entries)


def row_basis(g: MarketGraph, k: int) -> BasisSpec:
    """Star basis (k, j) for every j != k; complete graphs only."""
    if not 1 <= k <= g.n:
        raise GraphIndexError(f"vertex {k} out of range 1..{g.n}")
    if len(g.simple_edges) != g.n * (g.n - 1) // 2:
        raise NotCompleteError("row bases need every pair of goods to trade")
    return BasisSpec(graph=g, entries=tuple((k, j) for j in range(1, g.n + 1) if j != k))


def is_basis(g: MarketGraph, entries: Sequence[tuple[int, int]]) -> bool:
    """True iff the entries' undirected edges form a spanning tree of ``g``.

    Loop coordinates are pinned to zero and can never belong to a basis;
    repeating an undirected edge (in either orientation) disqualifies the
    set. A coordinate that is not an edge at all raises
    :class:`~arbx.errors.NotAnEdgeError`.
    """
    undirected: set[tuple[int, int]] = set()
    for i, j in entries:
        if not g.has_edge(i, j):
            raise NotAnEdgeError(f"({i}, {j}) is not an edge of the graph")
        if i == j:
            return False
        key = (i, j) if i < j else (j, i)
        if key in undirected:
            return False
        undirected.add(key)
    if len(undirected) != g.n - 1:
        return False
    return is_connected(MarketGraph(n=g.n, edges=frozenset(undirected)))


def _require_basis(spec: BasisSpec) -> None:
    try:
        ok = is_basis(spec.graph, spec.entries)
    except NotAnEdgeError as exc:
        raise NotABasisError(str(exc)) from exc
    if not ok:
        raise NotABasisError("entries do not form a spanning tree of the graph")


def _potentials(
    n: int, entries: Sequence[tuple[int, int]], values: Sequence[float]
) -> list[float]:
    # entry (i, j) = v of a spanning tree pins p[j-1] - p[i-1] = v; walk the
    # tree from good 1, so each price sums its root-to-vertex path in order
    signed: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for (i, j), val in zip(entries, values):
        signed[i - 1].append((j - 1, +val))
        signed[j - 1].append((i - 1, -val))
    p = [0.0] * n
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w, step in signed[u]:
            if w not in seen:
                seen.add(w)
                p[w] = p[u] + step
                queue.append(w)
    return p


def _differences(g: MarketGraph, prices: Sequence[float]) -> np.ndarray:
    # edge values in edge-id order: prices[j-1] - prices[i-1] for (i, j), 0 on loops
    p = np.array(prices, dtype=float)
    lo, hi = g._edge_array.T
    with np.errstate(over="ignore", invalid="ignore"):  # the constructor rejects non-finite
        forward = p[hi] - p[lo]
    return np.concatenate([forward, -forward, np.zeros(len(g.loops))])


def _basis_ids(spec: BasisSpec) -> tuple[np.ndarray, np.ndarray]:
    # edge ids of the basis coordinates (i, j) and of their reverses (j, i)
    i, j = np.array(spec.entries, dtype=np.int64).reshape(-1, 2).T - 1
    return spec.graph._edge_ids(i, j), spec.graph._edge_ids(j, i)


def _complete(spec: BasisSpec, values: Sequence[float]) -> LogRateMatrix:
    g = spec.graph
    out = _differences(g, _potentials(g.n, spec.entries, values))
    # basis coordinates carry the assigned values exactly, not via potentials
    there, back = _basis_ids(spec)
    basis = np.array(values, dtype=float)
    out[there], out[back] = basis, -basis
    return LogRateMatrix._of(g, out)


def complete(a: BasisAssignment) -> LogRateMatrix:
    """The unique arbitrage-free matrix carrying the assignment's values at
    its basis coordinates.

    Works through the price potential: the basis tree fixes one potential
    difference per entry, and every remaining edge entry is the potential
    difference of its endpoints, which is what path independence forces.
    Runs in O(n + edge count) and is bit-for-bit deterministic.
    """
    _require_basis(a.spec)
    return _complete(a.spec, a.values)


def epsilon_matrices(spec: BasisSpec) -> EpsilonBasis:
    """One completion per basis coordinate: a unit there, zero at the rest.

    These matrices form a linear basis of the arbitrage-free space, and the
    coordinate read-off property holds exactly, not within tolerance.
    """
    _require_basis(spec)
    mats = []
    for k in range(spec.size):
        unit = [0.0] * spec.size
        unit[k] = 1.0
        mats.append(_complete(spec, unit))
    return EpsilonBasis(spec=spec, matrices=tuple(mats))


def decompose(
    e: LogRateMatrix, spec: BasisSpec, tol: float = DEFAULT_TOL
) -> list[float]:
    """Coefficients of ``e`` in the spec's unit-response basis.

    Read directly off the basis coordinates; no system is solved. The sum of
    coefficient-weighted unit responses reproduces ``e``.
    """
    _require_basis(spec)
    if e.graph != spec.graph:
        raise GraphMismatchError("matrix and basis live on different graphs")
    if not check_no_arbitrage(e, tol).ok:
        raise NotArbitrageFreeError("matrix fails the arbitrage check")
    return e.values[_basis_ids(spec)[0]].tolist()


def dimension(g: MarketGraph) -> int:
    """Dimension of the arbitrage-free space: one degree of freedom per tree edge."""
    if not is_connected(g):
        raise NotConnectedError("graph is not connected")
    return g.n - 1


def dimension_by_rank(g: MarketGraph, *, max_n: int = ORACLE_MAX_VERTICES) -> int:
    """Independent dimension computation via exact linear algebra.

    One variable per undirected non-loop edge (antisymmetry already folded
    in), one zero-sum constraint per fundamental cycle, coefficients +-1;
    the dimension is the edge count minus the exact rank of the constraint
    system over the rationals. No floating-point judgment is involved.
    """
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


def _rank(rows: list[list[Fraction]]) -> int:
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
    g = e.graph
    if not 1 <= ref <= g.n:
        raise GraphIndexError(f"reference vertex {ref} out of range 1..{g.n}")
    if not check_no_arbitrage(e, tol).ok:
        raise NotArbitrageFreeError("matrix fails the arbitrage check")
    edges = spanning_tree(g).tree_edges
    child = np.fromiter((w for _, w in edges), np.intp, len(edges)) - 1
    q = _potentials(g.n, edges, e.values[g._tree_arrays.from_parent[child]].tolist())
    shift = q[ref - 1]
    return PriceVector(reference=ref, prices=tuple(x - shift for x in q))


def matrix_from_prices(
    g: MarketGraph, p: PriceVector | Sequence[float]
) -> LogRateMatrix:
    """Matrix of potential differences: entry (i, j) = p[j] - p[i] on edges,
    0 elsewhere.

    The output is arbitrage-free for any prices whatsoever, since every
    cycle sum telescopes away.
    """
    prices = tuple(p.prices) if isinstance(p, PriceVector) else tuple(float(x) for x in p)
    if len(prices) != g.n:
        raise LengthMismatchError(f"expected {g.n} prices, got {len(prices)}")
    return LogRateMatrix._of(g, _differences(g, prices))
