"""Exchange-rate matrices in multiplicative and log form, cycle gains, and
arbitrage checks.

Index convention, used everywhere: entry (i, j) is the price of good i in
units of good j, so one unit of good i buys entry-(i, j) units of good j.
Coordinates without an edge carry fixed bookkeeping values, 1 for rates and
0 for logs; they keep the log-domain matrices closed under linear
combination and never enter any cycle condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .errors import (
    BadParamsError,
    GraphIndexError,
    NotAnEdgeError,
    NotAWalkError,
    NotClosedError,
    NotConnectedError,
    OracleSizeError,
)
from .graph import (
    ORACLE_MAX_VERTICES,
    MarketGraph,
    TreeArrays,
    _tree_path,
    enumerate_simple_cycles,
    is_connected,
    spanning_tree,
)

DEFAULT_TOL = 1e-9
"""Default tolerance for log-domain consistency checks."""

_LOG_MAX = math.log(float(np.finfo(np.float64).max))


def require_tol(tol: float) -> None:
    """Reject a tolerance that is not positive and finite; under NaN or
    infinity every ``abs(gain) > tol`` test passes, whatever the input."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise BadParamsError(f"tolerance must be positive and finite, got {tol!r}")


def _check_vertex(g: MarketGraph, v: int) -> None:
    if not 1 <= v <= g.n:
        raise GraphIndexError(f"vertex {v} out of range 1..{g.n}")


def _as_matrix(g: MarketGraph, entries) -> np.ndarray:
    arr = np.array(entries, dtype=float)
    if arr.shape != (g.n, g.n):
        raise BadParamsError(f"entries must be {g.n}x{g.n}, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def _stray(g: MarketGraph, arr: np.ndarray, fill: float) -> np.ndarray:
    """Mask of the coordinates without an edge whose entry is not ``fill``."""
    stray = arr != fill
    a, b = g._edge_array.T
    stray[a, b] = stray[b, a] = False
    loops = np.array(g.loops, dtype=np.intp) - 1
    stray[loops, loops] = False
    return stray


def _require_fill(g: MarketGraph, arr: np.ndarray, fill: float) -> None:
    stray = _stray(g, arr, fill)
    if stray.any():
        i, j = np.unravel_index(np.argmax(stray), stray.shape)
        raise BadParamsError(
            f"coordinates without an edge must hold exactly {fill:g}; "
            f"({i + 1}, {j + 1}) holds {float(arr[i, j])!r}"
        )


@dataclass(frozen=True, eq=False)
class RateMatrix:
    """Multiplicative exchange matrix over a market graph.

    All entries are finite and strictly positive; coordinates that are not
    edges hold exactly 1.
    """

    graph: MarketGraph
    entries: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = _as_matrix(self.graph, self.entries)
        if not np.all(np.isfinite(arr)) or not np.all(arr > 0.0):
            raise BadParamsError("exchange rates must be finite and strictly positive")
        _require_fill(self.graph, arr, 1.0)
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.graph.n

    def rate(self, i: int, j: int) -> float:
        """Entry (i, j): units of good j bought by one unit of good i."""
        _check_vertex(self.graph, i)
        _check_vertex(self.graph, j)
        return float(self.entries[i - 1, j - 1])

    @classmethod
    def from_quotes(
        cls, graph: MarketGraph, quotes: Mapping[tuple[int, int], float]
    ) -> "RateMatrix":
        """Dense matrix from directed edge quotes; unquoted directions stay at 1."""
        arr = np.ones((graph.n, graph.n))
        for (i, j), rate in quotes.items():
            if not graph.has_edge(i, j):
                raise NotAnEdgeError(f"({i}, {j}) is not an edge of the graph")
            arr[i - 1, j - 1] = rate
        return cls(graph, arr)


@dataclass(frozen=True, eq=False)
class LogRateMatrix:
    """Additive (log-domain) exchange matrix; non-edge coordinates hold exactly 0.

    Whether the matrix is actually arbitrage-free is a property to check
    (:func:`check_no_arbitrage`), not a construction invariant.
    """

    graph: MarketGraph
    entries: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = _as_matrix(self.graph, self.entries)
        if not np.all(np.isfinite(arr)):
            raise BadParamsError("log rates must be finite")
        _require_fill(self.graph, arr, 0.0)
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.graph.n

    def value(self, i: int, j: int) -> float:
        """Entry (i, j) of the log matrix."""
        _check_vertex(self.graph, i)
        _check_vertex(self.graph, j)
        return float(self.entries[i - 1, j - 1])

    def with_entry(self, i: int, j: int, value: float) -> "LogRateMatrix":
        """Copy of this matrix with one directed edge coordinate replaced."""
        if not self.graph.has_edge(i, j):
            raise NotAnEdgeError(f"({i}, {j}) is not an edge of the graph")
        arr = np.array(self.entries)
        arr[i - 1, j - 1] = value
        return LogRateMatrix(self.graph, arr)

    @classmethod
    def from_values(
        cls, graph: MarketGraph, values: Mapping[tuple[int, int], float]
    ) -> "LogRateMatrix":
        """Dense log matrix from directed edge values; unset directions stay at 0."""
        arr = np.zeros((graph.n, graph.n))
        for (i, j), val in values.items():
            if not graph.has_edge(i, j):
                raise NotAnEdgeError(f"({i}, {j}) is not an edge of the graph")
            arr[i - 1, j - 1] = val
        return cls(graph, arr)


def log_of(r: RateMatrix) -> LogRateMatrix:
    """Entrywise natural log; non-edge coordinates map from 1 to exactly 0."""
    return LogRateMatrix(r.graph, np.log(r.entries))


def exp_of(e: LogRateMatrix) -> RateMatrix:
    """Entrywise exponential, the inverse of :func:`log_of`.

    Raises the built-in ``OverflowError`` when an entry's magnitude exceeds
    the representable range; such inputs signal pathological data, not a
    market state.
    """
    if np.any(np.abs(e.entries) > _LOG_MAX):
        raise OverflowError("log rate magnitude exceeds the representable range")
    return RateMatrix(e.graph, np.exp(e.entries))


def _walk_steps(g: MarketGraph, walk: Sequence[int]) -> list[int]:
    seq = [int(v) for v in walk]
    if len(seq) < 2:
        raise NotAWalkError("a closed walk needs at least one step")
    if seq[0] != seq[-1]:
        raise NotClosedError(f"walk {seq} does not end where it starts")
    for u, v in zip(seq, seq[1:]):
        if not g.has_edge(u, v):
            raise NotAWalkError(f"({u}, {v}) is not an edge of the graph")
    return seq


def cycle_log_gain(e: LogRateMatrix, walk: Sequence[int]) -> float:
    """Log gain of a closed walk: the sum of entry (u, v) over its steps.

    The walk is given as a closed vertex sequence (v1, ..., vt, v1). Zero for
    every closed walk is exactly the arbitrage-free condition.
    """
    seq = _walk_steps(e.graph, walk)
    return float(sum((e.entries[u - 1, v - 1] for u, v in zip(seq, seq[1:])), 0.0))


def cycle_gain(r: RateMatrix, walk: Sequence[int]) -> float:
    """Multiplicative round-trip gain of a closed walk; 1 when consistent."""
    seq = _walk_steps(r.graph, walk)
    gain = 1.0
    for u, v in zip(seq, seq[1:]):
        gain *= float(r.entries[u - 1, v - 1])
    return gain


@dataclass(frozen=True)
class PairViolation:
    """One failed antisymmetry condition; ``pair`` is normalized (i, j), i <= j."""

    pair: tuple[int, int]
    residual: float


@dataclass(frozen=True)
class ArbitrageWitness:
    """A closed walk whose log gain exceeds the tolerance of the check that found it.

    ``multiplicative_gain`` is ``math.inf`` when the gain exceeds the float range.
    """

    cycle: tuple[int, ...]
    log_gain: float
    multiplicative_gain: float


def _witness(cycle: Sequence[int], gain: float) -> ArbitrageWitness:
    mult = math.exp(gain) if gain <= _LOG_MAX else math.inf
    return ArbitrageWitness(cycle=tuple(cycle), log_gain=float(gain), multiplicative_gain=mult)


@dataclass(frozen=True)
class CheckResult:
    """Outcome of an arbitrage check; truthy exactly when consistent."""

    ok: bool
    witness: ArbitrageWitness | None
    cycles_checked: int
    max_abs_log_gain: float

    def __bool__(self) -> bool:
        return self.ok


def check_antisymmetry(e: LogRateMatrix, tol: float = DEFAULT_TOL) -> list[PairViolation]:
    """Violations of E[i, j] == -E[j, i] on edges and E[i, i] == 0 on loops.

    An empty list means the matrix is antisymmetric within ``tol``. Non-edge
    coordinates are re-verified to be exactly zero (the constructors already
    enforce this).
    """
    require_tol(tol)
    arr = e.entries
    bad: list[PairViolation] = []
    for i, j in np.argwhere(_stray(e.graph, arr, 0.0)):
        bad.append(PairViolation(pair=(int(i) + 1, int(j) + 1), residual=float(arr[i, j])))
    for v in e.graph.loops:
        d = float(arr[v - 1, v - 1])
        if abs(d) > tol:
            bad.append(PairViolation(pair=(v, v), residual=d))
    for i, j in e.graph.simple_edges:
        s = float(arr[i - 1, j - 1] + arr[j - 1, i - 1])
        if abs(s) > tol:
            bad.append(PairViolation(pair=(i, j), residual=s))
    return bad


Condition = tuple[tuple[int, int], tuple[int, ...], float]


def _verdict(conditions: list[Condition], tol: float) -> CheckResult:
    max_abs = max((abs(gain) for _, _, gain in conditions), default=0.0)
    bad = [c for c in conditions if abs(c[2]) > tol]
    if not bad:
        return CheckResult(True, None, len(conditions), max_abs)
    key, cycle, gain = min(bad, key=lambda c: (-abs(c[2]), c[0]))
    return CheckResult(False, _witness(cycle, gain), len(conditions), max_abs)


def _chord_gains(arr: np.ndarray, t: TreeArrays, k: np.ndarray, m: np.ndarray) -> np.ndarray:
    # log gain of each fundamental cycle (k, m, ..., top, ..., k), summed in
    # walk order from 0.0 like cycle_log_gain, all chords in lock-step. In a
    # BFS tree the ends of an edge differ in depth by at most one: the deeper
    # end steps once, then both climb together until they meet. m's up-steps
    # are added as they are climbed; k's steps are recorded and added
    # afterwards in reverse, top first.
    gains = 0.0 + arr[k, m]
    up, down = t.depth[m] > t.depth[k], t.depth[k] > t.depth[m]
    x, y = np.where(up, t.parent[m], m), np.where(down, t.parent[k], k)
    gains[up] += arr[m[up], x[up]]
    steps = [(down, arr[y[down], k[down]])]
    live = np.flatnonzero(x != y)
    x, y = x[live], y[live]
    while live.size:  # one step of both ends per pass
        px, py = t.parent[x], t.parent[y]
        gains[live] += arr[x, px]
        steps.append((live, arr[py, y]))
        keep = px != py
        live, x, y = live[keep], px[keep], py[keep]
    for chords, values in reversed(steps):
        gains[chords] += values
    return gains


def check_no_arbitrage(e: LogRateMatrix, tol: float = DEFAULT_TOL) -> CheckResult:
    """Arbitrage check via antisymmetry plus one orientation of each
    fundamental cycle of the deterministic spanning tree.

    Checking only these conditions suffices: once all edges are
    antisymmetric, reversals hold automatically, and every other closed
    walk's gain is a signed combination of fundamental-cycle gains. On
    violation the witness is the failing condition with the largest
    |log gain|, ties broken by lowest key (loop, then edge), an edge's
    antisymmetry condition ahead of its chord's cycle.

    All conditions are evaluated as array operations over the cached tree:
    both ends of every chord climb it in lock-step, one tree step per numpy
    pass, until they meet, which is O(total cycle length) element work. Each
    gain is summed in the order of its walk, starting from 0.0, so it equals
    :func:`cycle_log_gain` of the fundamental cycle bit for bit. Only the
    witness cycle is built in Python.
    """
    require_tol(tol)
    g = e.graph
    tree = spanning_tree(g)
    t = g._tree_arrays
    arr = e.entries
    a, b = g._edge_array.T
    is_chord = (t.parent[a] != b) & (t.parent[b] != a)
    k, m = a[is_chord], b[is_chord]
    loops = np.array(g.loops, dtype=np.intp) - 1
    gains = np.concatenate([arr[loops, loops], arr[a, b] + arr[b, a], _chord_gains(arr, t, k, m)])
    abs_gains = np.abs(gains)
    max_abs = float(abs_gains.max(initial=0.0))
    bad = np.flatnonzero(abs_gains > tol)
    if not bad.size:
        return CheckResult(True, None, gains.size, max_abs)
    first = np.concatenate([loops, a, k])
    second = np.concatenate([loops, b, m])
    worst = bad[abs_gains[bad] == abs_gains[bad].max()]
    # a stable sort keeps list order among equal keys: antisymmetry first
    w = worst[np.lexsort((second[worst], first[worst]))[0]]
    i, j = int(first[w]) + 1, int(second[w]) + 1
    if w < loops.size:
        cycle: tuple[int, ...] = (i, i)
    elif w < loops.size + a.size:
        cycle = (i, j, i)
    else:
        cycle = (i, *_tree_path(tree, j, i))
    return CheckResult(False, _witness(cycle, float(gains[w])), gains.size, max_abs)


def check_no_arbitrage_oracle(
    e: LogRateMatrix, tol: float = DEFAULT_TOL, *, max_n: int = ORACLE_MAX_VERTICES
) -> CheckResult:
    """Brute-force counterpart of :func:`check_no_arbitrage`.

    Evaluates antisymmetry plus every simple cycle of the graph instead of a
    fundamental set. Ground truth for differential tests; refuses graphs
    beyond ``max_n`` vertices.
    """
    require_tol(tol)
    if e.graph.n > max_n:
        raise OracleSizeError(f"{e.graph.n} vertices exceeds the oracle limit of {max_n}")
    if not is_connected(e.graph):
        raise NotConnectedError("graph is not connected")
    arr = e.entries
    conditions: list[Condition] = []
    for i, j in e.graph.simple_edges:
        s = float(arr[i - 1, j - 1] + arr[j - 1, i - 1])
        conditions.append(((i, j), (i, j, i), s))
    for cycle in enumerate_simple_cycles(e.graph, max_n=max_n):
        conditions.append(((cycle[0], cycle[1]), cycle, cycle_log_gain(e, cycle)))
    return _verdict(conditions, tol)
