"""Exchange-rate matrices in multiplicative and log form, cycle gains, and
arbitrage checks.

Index convention, used everywhere: entry (i, j) is the price of good i in
units of good j, so one unit of good i buys entry-(i, j) units of good j.

A matrix stores one value per directed edge of its graph, in the graph's
edge-id order (see :class:`~arbx.graph.MarketGraph`), so its memory is
O(n + edges). Coordinates without an edge have no storage: they read 1 for
rates and 0 for logs, which keeps the log-domain matrices closed under
linear combination, and they never enter any cycle condition. ``entries``
is the dense n x n view, built only when a caller asks for it.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    BadParamsError,
    NotAWalkError,
    NotClosedError,
    OracleSizeError,
)
from .graph import (
    ORACLE_MAX_VERTICES,
    MarketGraph,
    TreeArrays,
    _climb,
    _connected_tree,
    _ids_of,
    _Record,
    _set_fields,
    _tree_path,
    _vertex,
    enumerate_simple_cycles,
)

DEFAULT_TOL = 1e-9
"""Default tolerance for log-domain consistency checks."""

_LOG_MAX = math.log(float(np.finfo(np.float64).max))

CHORD_STEPS = 4
"""Recorded tree steps per good and per directed edge that the chord climb
of :func:`check_no_arbitrage` may hold at a time."""


def require_tol(tol: float) -> None:
    """Reject a tolerance that is not positive and finite; under NaN or
    infinity every ``abs(gain) > tol`` test passes, whatever the input."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise BadParamsError(f"tolerance must be positive and finite, got {tol!r}")


def _exp_or_inf(x: float) -> float:
    """``math.exp(x)``, or ``math.inf`` where that exceeds the float range."""
    return math.exp(x) if x <= _LOG_MAX else math.inf


def _require_fill(g: MarketGraph, arr: np.ndarray, fill: float) -> None:
    stray = arr != fill
    stray[g._edge_ends] = False
    if stray.any():
        i, j = np.unravel_index(np.argmax(stray), stray.shape)
        raise BadParamsError(
            f"coordinates without an edge must hold exactly {fill:g}; "
            f"({i + 1}, {j + 1}) holds {float(arr[i, j])!r}"
        )


def _dense(g: MarketGraph, values: np.ndarray, fill: float) -> np.ndarray:
    """Read-only n x n array: ``values`` at the edge coordinates, ``fill``
    everywhere else."""
    arr = np.full((g.n, g.n), fill)
    arr[g._edge_ends] = values
    arr.setflags(write=False)
    return arr


class _EdgeMatrix(_Record, eq=False):
    """One value per directed edge of ``graph``, in edge-id order, in a
    read-only array the matrix owns; its repr leaves the values out."""

    graph: MarketGraph
    values: np.ndarray

    # each subclass sets _FILL, what a coordinate without an edge reads, and
    # _check(arr), which rejects values the matrix may not hold

    def __init__(self, graph: MarketGraph, entries) -> None:
        arr = np.asarray(entries, dtype=float)
        if arr.shape != (graph.n, graph.n):
            raise BadParamsError(f"entries must be {graph.n}x{graph.n}, got shape {arr.shape}")
        self._check(arr)
        _require_fill(graph, arr, self._FILL)
        _set_fields(self, graph=graph, values=arr[graph._edge_ends])

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(graph={self.graph!r})"

    @classmethod
    def _of(cls, graph: MarketGraph, values: np.ndarray):
        """Matrix that takes ownership of ``values``, a fresh float array in
        edge-id order; every internal path builds matrices this way."""
        cls._check(values)
        return _set_fields(object.__new__(cls), graph=graph, values=values)

    @classmethod
    def _from_mapping(cls, graph: MarketGraph, mapping: Mapping[tuple[int, int], float]):
        values = np.full(graph._edge_count, cls._FILL)
        values[_ids_of(graph, mapping)] = np.fromiter(mapping.values(), float, len(mapping))
        return cls._of(graph, values)

    @property
    def n(self) -> int:
        return self.graph.n

    @cached_property
    def entries(self) -> np.ndarray:
        """Dense read-only n x n view, built on first access and kept."""
        return _dense(self.graph, self.values, self._FILL)

    def _at(self, i: int, j: int) -> float:
        g = self.graph
        k = int(g._edge_ids(_vertex(i, g.n) - 1, _vertex(j, g.n) - 1))
        return self._FILL if k < 0 else float(self.values[k])


class RateMatrix(_EdgeMatrix):
    """Multiplicative exchange matrix over a market graph.

    ``RateMatrix(graph, entries)`` takes a dense n x n array: all entries
    finite and strictly positive, exactly 1 at coordinates that are not
    edges. Only the edge coordinates are kept.
    """

    _FILL = 1.0

    @staticmethod
    def _check(arr: np.ndarray) -> None:
        if not np.all(np.isfinite(arr)) or not np.all(arr > 0.0):
            raise BadParamsError("exchange rates must be finite and strictly positive")

    def rate(self, i: int, j: int) -> float:
        """Entry (i, j): units of good j bought by one unit of good i."""
        return self._at(i, j)

    @classmethod
    def from_quotes(
        cls, graph: MarketGraph, quotes: Mapping[tuple[int, int], float]
    ) -> "RateMatrix":
        """Matrix from directed edge quotes; unquoted directions stay at 1."""
        return cls._from_mapping(graph, quotes)


class LogRateMatrix(_EdgeMatrix):
    """Additive (log-domain) exchange matrix.

    ``LogRateMatrix(graph, entries)`` takes a dense n x n array: all entries
    finite, exactly 0 at coordinates that are not edges. Only the edge
    coordinates are kept. Whether the matrix is actually arbitrage-free is a
    property to check (:func:`check_no_arbitrage`), not a construction
    invariant.
    """

    _FILL = 0.0

    @staticmethod
    def _check(arr: np.ndarray) -> None:
        if not np.all(np.isfinite(arr)):
            raise BadParamsError("log rates must be finite")

    def value(self, i: int, j: int) -> float:
        """Entry (i, j) of the log matrix."""
        return self._at(i, j)

    def with_entry(self, i: int, j: int, value: float) -> "LogRateMatrix":
        """Copy of this matrix with one directed edge coordinate replaced."""
        values = self.values.copy()
        values[_ids_of(self.graph, [(i, j)])] = value
        return LogRateMatrix._of(self.graph, values)

    @classmethod
    def from_values(
        cls, graph: MarketGraph, values: Mapping[tuple[int, int], float]
    ) -> "LogRateMatrix":
        """Log matrix from directed edge values; unset directions stay at 0."""
        return cls._from_mapping(graph, values)


def log_of(r: RateMatrix) -> LogRateMatrix:
    """Entrywise natural log; non-edge coordinates map from 1 to exactly 0."""
    return LogRateMatrix._of(r.graph, np.log(r.values))


def exp_of(e: LogRateMatrix) -> RateMatrix:
    """Entrywise exponential, the inverse of :func:`log_of`.

    Raises the built-in ``OverflowError`` when an entry's magnitude exceeds
    the representable range; such inputs signal pathological data, not a
    market state.
    """
    if np.any(np.abs(e.values) > _LOG_MAX):
        raise OverflowError("log rate magnitude exceeds the representable range")
    return RateMatrix._of(e.graph, np.exp(e.values))


def _walk_values(m: _EdgeMatrix, walk: Sequence[int]) -> list[float]:
    # the matrix value of each step of a closed walk, in order
    seq = list(walk)
    if len(seq) < 2:
        raise NotAWalkError("a closed walk needs at least one step")
    if seq[0] != seq[-1]:
        raise NotClosedError(f"walk {seq} does not end where it starts")
    return m.values[_ids_of(m.graph, zip(seq, seq[1:]), NotAWalkError)].tolist()


def cycle_log_gain(e: LogRateMatrix, walk: Sequence[int]) -> float:
    """Log gain of a closed walk: the sum of entry (u, v) over its steps.

    The walk is given as a closed vertex sequence (v1, ..., vt, v1). Zero for
    every closed walk is exactly the arbitrage-free condition. The steps are
    added one by one from 0.0, in walk order, as Python floats: a gain
    beyond the float range is infinite, without a warning.
    """
    gain = 0.0
    for value in _walk_values(e, walk):
        gain += value
    return gain


def cycle_gain(r: RateMatrix, walk: Sequence[int]) -> float:
    """Multiplicative round-trip gain of a closed walk; 1 when consistent."""
    gain = 1.0
    for rate in _walk_values(r, walk):
        gain *= rate
    return gain


class PairViolation(_Record):
    """One failed antisymmetry condition; ``pair`` is normalized (i, j), i <= j."""

    pair: tuple[int, int]
    residual: float


class ArbitrageWitness(_Record):
    """A closed walk whose log gain exceeds the tolerance of the check that found it.

    ``multiplicative_gain`` is ``math.inf`` when the gain exceeds the float range.
    """

    cycle: tuple[int, ...]
    log_gain: float
    multiplicative_gain: float


def _witness(cycle: Sequence[int], gain: float) -> ArbitrageWitness:
    return ArbitrageWitness(
        cycle=tuple(cycle), log_gain=float(gain), multiplicative_gain=_exp_or_inf(gain)
    )


class CheckResult(_Record):
    """Outcome of an arbitrage check; truthy exactly when consistent."""

    ok: bool
    witness: ArbitrageWitness | None
    cycles_checked: int
    max_abs_log_gain: float

    def __bool__(self) -> bool:
        return self.ok


def check_antisymmetry(e: LogRateMatrix, tol: float = DEFAULT_TOL) -> list[PairViolation]:
    """Violations of E[i, j] == -E[j, i] on edges and E[i, i] == 0 on loops.

    An empty list means the matrix is antisymmetric within ``tol``. Loops
    come first, then edges, each in ascending order. Coordinates without an
    edge hold nothing and cannot fail.
    """
    require_tol(tol)
    g, bad = e.graph, []
    for gains, i, j in zip(_antisymmetry_gains(e), (g._loop_array, g._lo), (g._loop_array, g._hi)):
        k = np.flatnonzero(np.abs(gains) > tol)
        bad += map(PairViolation, zip(*np.add((i[k], j[k]), 1).tolist()), gains[k].tolist())
    return bad


def _antisymmetry_gains(e: LogRateMatrix) -> tuple[np.ndarray, np.ndarray]:
    # each loop's value, and E[i, j] + E[j, i] for each simple edge in order;
    # a sum beyond the float range is infinite, without a warning
    v, edges = e.values, e.graph._lo.size
    with np.errstate(over="ignore"):
        return v[2 * edges :], v[:edges] + v[edges : 2 * edges]


Condition = tuple[tuple[int, int], tuple[int, ...], float]


def _verdict(conditions: list[Condition], tol: float) -> CheckResult:
    max_abs = max((abs(gain) for _, _, gain in conditions), default=0.0)
    bad = [c for c in conditions if abs(c[2]) > tol]
    if not bad:
        return CheckResult(True, None, len(conditions), max_abs)
    key, cycle, gain = min(bad, key=lambda c: (-abs(c[2]), c[0]))
    return CheckResult(False, _witness(cycle, gain), len(conditions), max_abs)


def _chord_gains(
    v: np.ndarray, t: TreeArrays, chords: np.ndarray, k: np.ndarray, m: np.ndarray
) -> np.ndarray:
    # log gain of each fundamental cycle (k, m, ..., top, ..., k), summed in
    # walk order from 0.0 like cycle_log_gain. The first step is the chord's
    # own forward value v[chord]. The chords climb in batches: chord k -> m
    # records at most depth[k] steps (see _climb_chords), and a batch, one
    # chord at least, at most CHORD_STEPS per good and per directed edge.
    gains = 0.0 + v[chords]
    if not chords.size:
        return gains
    # per vertex, the values of its steps to and from its parent
    up, down = v[t.to_parent], v[t.from_parent]
    ends = np.cumsum(t.depth[k])
    budget = CHORD_STEPS * (t.parent.size + v.size)
    start = 0
    while start < chords.size:
        done = int(ends[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, done + budget, "right")))
        _climb_chords(gains[start:stop], up, down, t, k[start:stop], m[start:stop])
        start = stop
    return gains


def _climb_chords(
    gains: np.ndarray, up: np.ndarray, down: np.ndarray, t: TreeArrays, k: np.ndarray, m: np.ndarray
) -> None:
    # adds to gains the tree steps of the chords k -> m, all in lock-step. In
    # a BFS tree the ends of an edge differ in depth by at most one: the
    # deeper end steps once, then both climb together until they meet. m's
    # up-steps are added as they are climbed; k's steps are recorded and
    # added afterwards in reverse, top first.
    m_deeper, k_deeper = t.depth[m] > t.depth[k], t.depth[k] > t.depth[m]
    x, y = np.where(m_deeper, t.parent[m], m), np.where(k_deeper, t.parent[k], k)
    gains[m_deeper] += up[m[m_deeper]]
    steps = [(k_deeper, down[k[k_deeper]])]
    live = np.flatnonzero(x != y)
    x, y = x[live], y[live]
    while live.size:  # one step of both ends per pass
        gains[live] += up[x]
        steps.append((live, down[y]))
        px, py = t.parent[x], t.parent[y]
        keep = px != py
        live, x, y = live[keep], px[keep], py[keep]
    for rows, values in reversed(steps):
        gains[rows] += values


def check_no_arbitrage(e: LogRateMatrix, tol: float = DEFAULT_TOL) -> CheckResult:
    """Arbitrage check via antisymmetry plus one orientation of each
    fundamental cycle of the deterministic spanning tree.

    Checking only these conditions suffices: once all edges are
    antisymmetric, reversals hold automatically, and every other closed
    walk's gain is a signed combination of fundamental-cycle gains. On
    violation the witness is the failing condition with the largest
    |log gain|, ties broken by lowest key (loop, then edge), an edge's
    antisymmetry condition ahead of its chord's cycle. A cycle's gain g is
    summed in walk order from 0.0, bit for bit as by :func:`cycle_log_gain`.

    One walk down the tree gives potentials p, and chord k -> m of value v
    the residual r = v - (p[m] - p[k]). Let u = 2**-53, D the tree's depth,
    A = D max|a| over the antisymmetry sums a of the tree edges, and P the
    exact potentials. Each good's addition errs by u times its sum, so
    |p - P| <= u D max|p|. Each partial sum of the walk is v + P[x] - P[m]
    plus some a, at most W = |v| + (max p - min p) + A + 2u D max|p| in
    size, so the walk's at most 2D + 1 additions leave g within
    gamma_(2D+1) W of the exact gain G = v - (P[m] - P[k]) + (the a of the
    edges m climbs) (Higham, *Accuracy and Stability of Numerical
    Algorithms*, section 4.2), and r's two roundings leave r within
    A + 2u W + 2u D max|p| of G. So |g - r| <= (2D + 3) u W + A + 2u D max|p|
    to first order in u; the check takes twice that (for the rest and its
    own rounding) plus 2**-1070 (for underflow). A chord climbs the tree
    for g only if |r| + bound is above ``tol`` and reaches the largest
    |r| - bound, loop value and antisymmetry sum, or is not finite, in
    batches of at most :data:`CHORD_STEPS` recorded steps per good and per
    directed edge. On a consistent market none climbs; ``max_abs_log_gain``
    is then the largest |residual|, |loop value| or |antisymmetry sum|.
    """
    return _check(e, tol)[0]


def _check(e: LogRateMatrix, tol: float) -> tuple[CheckResult, np.ndarray]:
    # the check, and the potentials p it screened the chords with
    require_tol(tol)
    g, v, t = e.graph, e.values, _connected_tree(e.graph)
    a, b, loops = g._lo, g._hi, g._loop_array
    chords = np.flatnonzero((t.parent[a] != b) & (t.parent[b] != a))
    fixed, p, depth = np.concatenate(_antisymmetry_gains(e)), _climb(t, v), t.levels.size - 2
    with np.errstate(over="ignore", invalid="ignore"):
        drift = depth * np.abs(fixed[np.minimum(t.to_parent, t.from_parent)[t.order[1:]] + loops.size]).max(initial=0.0)
        err = 2 * 2.0**-53 * depth * np.abs(p).max()
        r = np.abs(v[chords] - (p[b[chords]] - p[a[chords]]))  # each chord's |residual|
        upper = (np.abs(v[chords]) + (p.max() - p.min() + drift + err)) * (2 * (2 * depth + 3) * 2.0**-53)
        upper += 2 * (drift + err) + 2.0**-1070  # the bound, centred on |r| next
        lower = r - upper
        upper += r
        unsure = ~np.isfinite(upper)
        upper[unsure], lower[unsure] = np.inf, 0.0
        most = np.abs(fixed).max(initial=0.0)
        c = chords[(upper > tol) & (upper >= max(most, lower.max(initial=0.0)))]
        del upper, lower, unsure
        gains = np.concatenate([fixed, _chord_gains(v, t, c, a[c], b[c])])
    abs_gains = np.abs(gains)
    if not abs_gains.max(initial=0.0) > tol:
        most = max(most, np.fmax.reduce(r, initial=0.0))
        return CheckResult(True, None, fixed.size + chords.size, float(most)), p
    worst = np.flatnonzero(abs_gains == abs_gains.max())
    first, second = (np.concatenate([loops, x, x[c]])[worst] for x in (a, b))
    # a stable sort keeps list order among equal keys: antisymmetry first
    k = np.lexsort((second, first))[0]
    w, i, j = worst[k], int(first[k]) + 1, int(second[k]) + 1
    if w < loops.size:
        cycle: tuple[int, ...] = (i, i)
    elif w < loops.size + a.size:
        cycle = (i, j, i)
    else:
        cycle = (i, *_tree_path(t, j, i))
    return CheckResult(False, _witness(cycle, float(gains[w])), fixed.size + chords.size, float(abs_gains[w])), p


def check_no_arbitrage_oracle(
    e: LogRateMatrix, tol: float = DEFAULT_TOL, *, max_n: int = ORACLE_MAX_VERTICES
) -> CheckResult:
    """Brute-force counterpart of :func:`check_no_arbitrage`.

    Evaluates antisymmetry plus every simple cycle of the graph instead of a
    fundamental set. Ground truth for differential tests; refuses graphs
    beyond ``max_n`` vertices or with more chords than the complete graph on
    :data:`ORACLE_MAX_VERTICES` goods; sums each cycle as :func:`cycle_log_gain` does.
    """
    require_tol(tol)
    if e.graph.n > max_n:
        raise OracleSizeError(f"{e.graph.n} vertices exceeds the oracle limit of {max_n}")
    _connected_tree(e.graph)
    # c chords close at most 2^c - 1 simple cycles: allow the C(cap - 1, 2) chords of K(cap)
    chords, most = e.graph._lo.size - e.graph.n + 1, math.comb(ORACLE_MAX_VERTICES - 1, 2)
    if chords > most:
        raise OracleSizeError(f"{chords} chords exceeds the oracle limit of {most}, the chords of K{ORACLE_MAX_VERTICES}")
    _, sums = _antisymmetry_gains(e)
    conditions: list[Condition] = [((i, j), (i, j, i), s) for (i, j), s in zip(e.graph.simple_edges, sums.tolist())]
    src, dst = e.graph._edge_ends
    value = dict(zip(zip((src + 1).tolist(), (dst + 1).tolist()), e.values.tolist()))
    for cycle in enumerate_simple_cycles(e.graph, max_n=max_n):
        gain = 0.0
        for step in zip(cycle, cycle[1:]):
            gain += value[step]
        conditions.append(((cycle[0], cycle[1]), cycle, gain))
    return _verdict(conditions, tol)
