"""Market graphs, spanning trees, fundamental cycles, and seeded test-graph
generators.

Vertices stand for tradable goods and are numbered 1..n in every public
interface. An edge {i, j} means the pair trades directly; reflexive loops
{i, i} may be stored but never enter spanning trees or fundamental cycles.

Internally a graph is arrays, vertices 0-based: sorted edge endpoints, the
adjacency in compressed sparse rows, and a breadth-first tree found one
numpy pass per large level and vertex by vertex along small ones; the
public tuples are built only when asked for.
"""

from __future__ import annotations

import random
from contextlib import suppress
from functools import cached_property
from inspect import Parameter, Signature, get_annotations
from itertools import chain
from operator import attrgetter
from operator import index as _int
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple

import numpy as np

from .errors import (
    BadParamsError,
    DuplicateEdgeError,
    GraphIndexError,
    NotAnEdgeError,
    NotConnectedError,
    OracleSizeError,
    TreeMismatchError,
)
from .spans import span

ORACLE_MAX_VERTICES = 8
"""Vertex cap for brute-force cycle enumeration and the checks built on it."""

MAX_GENERATED_EDGES = 2_000_000
"""Largest edge list :func:`generate_graph` builds: n(n - 1)/2 candidate
pairs for ``complete`` and ``gnp-connected``, m(n - m) + m(m - 1)/2 edges
for ``preferential-attachment``, n - 1 for ``tree``. Larger requests are
refused before anything is allocated; K2000 and pa n=10^5, m=3 fit."""

SMALL_LEVEL = 16
"""Largest tree level that the breadth-first search and the potentials walk
step through vertex by vertex instead of in one numpy pass. A pass costs
about 25 us however small its level, so one per level would make a path of
n goods cost n passes; a vertex by hand costs about 2 us."""

_SLICE = 1 << 14
"""Slots of a large level searched in one pass: swept from 2^10 to 2^30, as fast from 2^13, least memory to 2^14."""

_MAX_KEYED_N = 3_037_000_499
"""Largest n whose edge keys i * n + j fit in int64."""

_NOT_VERTICES = (bool, np.bool_)  # operator.index may take them; they are no vertices

Edge = tuple[int, int]


def _vertex(v: object, n: int, what: str = "vertex") -> int:
    """``v`` as an int if it is one of the goods 1..n: an integer, not a
    bool. Anything else raises :class:`~arbx.errors.GraphIndexError`."""
    with suppress(TypeError):
        if not isinstance(v, _NOT_VERTICES) and 1 <= _int(v) <= n:
            return _int(v)
    raise GraphIndexError(f"{what} {v!r} out of range 1..{n}")


def _vertex_pairs(items: Iterable[object], what: str, n: int) -> tuple[np.ndarray, Exception | None]:
    """Read vertex pairs: the one place that decides what a vertex pair is.

    A vertex is an integer (``operator.index``) but not a bool; a pair is a
    sequence of two vertices, or a set of one (a loop) or two. Returns a
    (k, 2) int64 array, a set's vertices ascending, and None; or, at the
    first item that is not a pair, the pairs before it and the error naming
    it (a BadParamsError, or a GraphIndexError for a vertex beyond int64),
    for the caller to raise once it has checked those. A (k, 2) int64 array
    is such pairs already and is copied; other items are read by one pass of
    C iterators, and only if it fails one by one.
    """
    if isinstance(items, np.ndarray) and items.dtype == np.int64 and items.shape[1:] == (2,):
        return items.copy(), None
    items = list(items)
    try:
        sets = any(issubclass(t, (set, frozenset)) for t in set(map(type, items)))
        rows = [sorted(x) * (3 - len(x)) if isinstance(x, (set, frozenset)) else x for x in items] if sets else items
        if set(map(len, rows)) <= {2}:
            vertices = list(chain.from_iterable(rows))
            types = set(map(type, vertices))
            if len(vertices) == 2 * len(rows) and not types.intersection(_NOT_VERTICES):
                ints = vertices if types <= {int} else map(_int, vertices)
                return np.fromiter(ints, np.int64, len(vertices)).reshape(-1, 2), None
    except (TypeError, OverflowError):
        pass
    # item by item, only to find the first faulty one and name it
    k = next(k for k, item in enumerate(items) if len(items) == 1 or _vertex_pairs([item], what, n)[1])
    item, pairs = items[k], _vertex_pairs(items[:k], what, n)[0]
    try:
        is_set = isinstance(item, (set, frozenset))
        i, j = sorted(item) * (3 - len(item)) if is_set else item if len(item) == 2 else ()
    except (TypeError, ValueError, OverflowError):  # no length, not two, or a set that does not sort
        return pairs, BadParamsError(f"{what} {item!r} is not a vertex pair")
    try:
        i, j = (_int(v) for v in (i, j) if not isinstance(v, _NOT_VERTICES))
    except (TypeError, ValueError):  # ValueError: a bool was left out
        return pairs, BadParamsError(f"{what} {item!r} has non-integer vertices")
    return pairs, GraphIndexError(f"{what} ({i}, {j}) out of range 1..{n}")  # beyond int64


def _set_fields(record, **fields):
    """``record`` with ``fields`` set past the frozen guard, arrays made
    read-only: how a record is built from checked arrays without __init__."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(record, name, value)
    return record


def _refuse(verb: str) -> Callable:
    """The frozen guard's ``__setattr__`` or ``__delattr__``."""
    def guard(self, name: str, *value) -> None:
        raise AttributeError(f"cannot {verb} field {name!r}")
    return guard


class _Record:
    """A record of the fields its class annotates, in order. Such a subclass
    gets its ``__match_args__``; unless its body defines one, a constructor,
    with its ``__signature__``, that takes the fields by position or keyword
    and then runs ``__post_init__``; and, if ``frozen``, a guard against
    assigning or deleting attributes. A subclass that annotates nothing is
    the record it extends. Records compare and hash by the attributes named
    in ``_KEY``, the fields unless the class sets it (dotted names allowed,
    arrays by value, each item first by identity as in a tuple), by
    identity with ``eq=False``, and are unhashable unless ``frozen``. A
    derived field is a ``cached_property`` of the class body, shadowed by a
    value the constructor stores. The pickle leaves out what was cached on
    first read and is restored through :func:`_set_fields`, so that the
    copy's arrays are read-only as the original's are."""

    def __init_subclass__(cls, frozen: bool = True, eq: bool = True) -> None:
        super().__init_subclass__()
        fields = tuple(get_annotations(cls))
        if not fields:
            return
        cls._FIELDS = cls.__match_args__ = fields
        cls._KEY = vars(cls).get("_KEY", fields)
        size, post_init = len(fields), getattr(cls, "__post_init__", None)
        signature = Signature([Parameter(f, Parameter.POSITIONAL_OR_KEYWORD) for f in fields])

        def __init__(self, *args, **kwargs) -> None:
            # all the fields by position, or all by keyword in order, in one
            # update; any other call is bound by the signature, which raises
            # TypeError on a missing, extra or repeated argument
            if not kwargs and len(args) == size:
                self.__dict__.update(zip(fields, args))
            elif not args and tuple(kwargs) == fields:
                self.__dict__.update(kwargs)
            else:
                self.__dict__.update(signature.bind(*args, **kwargs).arguments)
            if post_init is not None:
                post_init(self)

        if "__init__" not in vars(cls):
            cls.__init__, cls.__signature__ = __init__, signature
        if not eq:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__
        elif not frozen:
            cls.__hash__ = None
        if frozen:
            cls.__setattr__, cls.__delattr__ = _refuse("assign to"), _refuse("delete")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        pairs = ((attrgetter(k)(self), attrgetter(k)(other)) for k in self._KEY)
        return self is other or all(a is b or (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b) for a, b in pairs)

    def __hash__(self) -> int:
        values = (attrgetter(k)(self) for k in self._KEY)
        return hash(tuple(v.tobytes() if isinstance(v, np.ndarray) else v for v in values))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{f}={getattr(self, f)!r}' for f in self._FIELDS)})"

    def __getstate__(self) -> dict:
        cls = type(self)
        return {k: v for k, v in vars(self).items() if k in cls._FIELDS or type(getattr(cls, k, None)) is not cached_property}

    def __setstate__(self, state: dict) -> None:
        _set_fields(self, **state)


class MarketGraph(_Record):
    """Undirected market graph on goods 1..n.

    ``edges`` holds normalized pairs (i, j) with i <= j; a pair with i == j
    is a reflexive loop. Connectivity is not a construction invariant; it is
    a precondition of the algorithms that need it (see :func:`is_connected`).

    Construction validates the pairs with array operations and keeps them
    as sorted 0-based arrays; everything else is derived from those on
    first use and cached. Only direct construction stores ``edges``: the
    graphs of :func:`new_graph` and the loaders come from their checked,
    sorted arrays (``_of_arrays``) and build ``edges`` when it is read.

    Every directed edge has an id, the index of its value in a rate or log
    matrix: with E simple edges, id k < E is (i, j) of ``simple_edges[k]``
    (i < j), id E + k its reverse (j, i), and id 2E + l the loop at
    ``loops[l]``.
    """

    n: int
    edges: frozenset[Edge]

    _KEY = ("n", "_lo", "_hi", "_loop_array")  # equal sorted arrays are equal edge sets

    def __post_init__(self) -> None:
        pairs, lo, hi, loops = _edge_arrays(self.n, self.edges)
        swapped = pairs[:, 0] > pairs[:, 1]
        if swapped.any():
            i, j = pairs[np.argmax(swapped)].tolist()
            raise BadParamsError(f"edge ({i}, {j}) is not normalized; use new_graph()")
        _set_fields(self, _lo=lo, _hi=hi, _loop_array=loops)

    @classmethod
    def _of_arrays(cls, n: int, lo: np.ndarray, hi: np.ndarray, loops: np.ndarray) -> MarketGraph:
        """The graph on 0-based pairs the caller has validated: distinct
        ``lo < hi`` in ascending (lo, hi) order and distinct ``loops``
        ascending, all in 0..n-1. Nothing is checked or sorted again, and
        :attr:`edges` is built only when first read."""
        return _set_fields(object.__new__(cls), n=n, _lo=lo, _hi=hi, _loop_array=loops)

    @cached_property
    def edges(self) -> frozenset[Edge]:
        return frozenset(chain(self.simple_edges, zip(self.loops, self.loops)))

    @cached_property
    def simple_edges(self) -> tuple[Edge, ...]:
        """Non-loop edges in ascending order."""
        return tuple(zip((self._lo + 1).tolist(), (self._hi + 1).tolist()))

    @cached_property
    def loops(self) -> tuple[int, ...]:
        """Vertices carrying a reflexive loop, ascending."""
        return tuple((self._loop_array + 1).tolist())

    @cached_property
    def _adjacency(self) -> tuple[np.ndarray, ...]:
        return _csr(self.n, self._lo, self._hi)

    @cached_property
    def _tree_arrays(self) -> "TreeArrays":
        # pair k of the search's list is directed edge id k
        return _bfs_tree(self.n, self._lo, self._hi)

    @cached_property
    def _spanning_tree(self) -> "SpanningTree":
        # spans only vertex 1's component when the graph is disconnected
        child = self._tree_arrays.order[1:]
        parents, children = (self._tree_arrays.parent[child] + 1).tolist(), (child + 1).tolist()
        return SpanningTree(1, dict(zip(children, parents)), tuple(zip(parents, children)))

    @cached_property
    def _edge_ends(self) -> tuple[np.ndarray, np.ndarray]:
        # 0-based (source, target) of every directed edge, in edge-id order
        lo, hi, loops = self._lo, self._hi, self._loop_array
        ends = (np.concatenate([lo, hi, loops]), np.concatenate([hi, lo, loops]))
        for arr in ends:
            arr.setflags(write=False)
        return ends

    @property
    def _edge_count(self) -> int:
        # directed edges, the length of a value vector
        return 2 * self._lo.size + self._loop_array.size

    @cached_property
    def _forward_keys(self) -> np.ndarray:
        # lo * n + hi of every simple edge, ascending since the edges are sorted
        if self.n > _MAX_KEYED_N:
            raise BadParamsError(f"edge lookup supports at most {_MAX_KEYED_N} goods, got {self.n}")
        keys = self._lo.astype(np.int64) * self.n + self._hi
        keys.setflags(write=False)
        return keys

    def _edge_ids(self, i, j) -> np.ndarray:
        """Directed edge ids of the 0-based coordinate arrays (i, j), -1
        where (i, j) is not an edge; vertices must lie in 0..n-1."""
        i, j = np.asarray(i, dtype=np.int64), np.asarray(j, dtype=np.int64)
        ids = np.full(np.broadcast(i, j).shape, -1, dtype=np.intp)
        keys, loops = self._forward_keys, self._loop_array
        if keys.size:
            key = np.minimum(i, j) * self.n + np.maximum(i, j)
            k = np.minimum(np.searchsorted(keys, key), keys.size - 1)
            ids = np.where(keys[k] == key, np.where(i > j, k + keys.size, k), ids)
        if loops.size:
            k = np.minimum(np.searchsorted(loops, i), loops.size - 1)
            ids = np.where((i == j) & (loops[k] == i), k + 2 * keys.size, ids)
        return ids

    def neighbors(self, v: int) -> tuple[int, ...]:
        """Non-loop neighbors of ``v`` in ascending order."""
        v = _vertex(v, self.n)
        indptr, nbrs, _ = self._adjacency
        return tuple((nbrs[indptr[v - 1] : indptr[v]] + 1).tolist())

    def has_edge(self, i: int, j: int) -> bool:
        """True iff {i, j} is an edge (a loop if i == j); False for non-goods."""
        try:
            return bool(self._edge_ids(_vertex(i, self.n) - 1, _vertex(j, self.n) - 1) >= 0)
        except GraphIndexError:
            return False


class SpanningTree(_Record, eq=False):
    """Rooted spanning tree; ``tree_edges`` are (parent, child) in discovery order.

    ``parent`` is a read-only copy of the mapping passed in.
    """

    root: int
    parent: Mapping[int, int]
    tree_edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        _set_fields(self, parent=MappingProxyType(dict(self.parent)))

    def __reduce__(self):
        # a mapping proxy cannot be pickled; rebuild from a plain copy
        return (SpanningTree, (self.root, dict(self.parent), self.tree_edges))

    def path_to_root(self, v: int) -> list[int]:
        """Vertices from ``v`` up to the root, both inclusive."""
        path = [v]
        while path[-1] != self.root:
            nxt = self.parent.get(path[-1])
            if nxt is None or len(path) > len(self.parent) + 1:
                raise TreeMismatchError(f"no tree path from {v} to root {self.root}")
            path.append(nxt)
        return path


class TreeArrays(NamedTuple):
    """The deterministic breadth-first tree of vertex 1's component as
    read-only arrays, vertices 0-based.

    ``order`` lists the reached vertices in discovery order, root first;
    level d is ``order[levels[d]:levels[d + 1]]``. ``parent`` maps the root
    and every unreached vertex to itself; ``depth`` counts tree steps to the
    root. ``to_parent`` and ``from_parent`` are the directed edge ids of each
    vertex's steps to and from its parent (0 where there is none).
    """

    parent: np.ndarray
    depth: np.ndarray
    to_parent: np.ndarray
    from_parent: np.ndarray
    order: np.ndarray
    levels: np.ndarray


def _spans(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The positions of the runs of ``lengths`` from ``starts``, one run after the other."""
    return np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())


def _csr(n: int, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, ...]:
    """(indptr, nbrs, pair): row v, ``nbrs[indptr[v]:indptr[v + 1]]``, lists
    v's neighbours over the distinct 0-based pairs (a[k], b[k]) ascending;
    ``pair`` places each slot's step in the list a -> b, then b -> a, the
    pairs in any order: on up to 2^16 goods by two stable radix passes over
    the 16-bit ends, above by an argsort of int64 keys. Built only where the
    pairs can span n vertices, so n * n stays in int64."""
    indptr = np.zeros(n + 1, np.intp)
    np.cumsum(np.bincount(a, minlength=n) + np.bincount(b, minlength=n), out=indptr[1:])
    if n <= 1 << 16:
        pair = np.lexsort((np.concatenate([b, a]).astype(np.uint16), np.concatenate([a, b]).astype(np.uint16)))
    else:
        pair = np.argsort(np.concatenate([a, b]).astype(np.int64, copy=False) * n + np.concatenate([b, a]))
    return indptr, np.concatenate([b, a])[pair], pair


def _ascending(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Whether each pair (lo, hi) comes after the one before it."""
    return (lo[1:] > lo[:-1]) | (lo[1:] == lo[:-1]) & (hi[1:] > hi[:-1])


@span("tree_ms")
def _bfs_tree(n: int, a: np.ndarray, b: np.ndarray) -> TreeArrays:
    """Breadth-first tree from vertex 0 over the pairs (a[k], b[k]), one
    level at a time, as a queue over sorted rows would find it: each level's
    rows are read in discovery order, and a vertex not reached yet joins the
    next level at its first occurrence. A level of more than
    :data:`SMALL_LEVEL` vertices is searched in one numpy pass; a stretch of
    smaller levels is walked vertex by vertex. ``from_parent`` and
    ``to_parent`` are positions in the pair list of :func:`_csr`."""
    indptr, nbrs, pair = _csr(n, a, b)
    parent, depth, via = np.arange(n), np.full(n, -1, np.intp), np.zeros(n, np.intp)
    depth[0] = 0
    frontier = np.zeros(1, np.intp)
    sizes, parts = [1], [frontier]
    while frontier.size:
        if frontier.size <= SMALL_LEVEL:
            found, slots, level = [], [], frontier.tolist()
            while 0 < len(level) <= SMALL_LEVEL:
                fresh = []
                for u in level:
                    start, end = indptr[u : u + 2].tolist()
                    for k, v in enumerate(nbrs[start:end].tolist(), start):
                        if depth[v] < 0:
                            depth[v] = len(sizes)
                            fresh.append(v)
                            slots.append(k)
                found += fresh
                sizes.append(len(fresh))
                level = fresh
            found, slots, frontier = (np.array(x, np.intp) for x in (found, slots, level))
        else:
            # the rows in pieces of about _SLICE slots, each marking its goods before the next
            ends, pieces = np.cumsum(indptr[frontier + 1] - indptr[frontier]), []
            for rows in np.split(frontier, np.searchsorted(ends, np.arange(_SLICE, ends[-1], _SLICE), "right")):
                slots = _spans(indptr[rows], indptr[rows + 1] - indptr[rows])
                slots = slots[depth[nbrs[slots]] < 0]
                pieces.append(slots[np.sort(np.unique(nbrs[slots], return_index=True)[1])])
                depth[nbrs[pieces[-1]]] = len(sizes)
            slots = np.concatenate(pieces)
            found = frontier = nbrs[slots]
            sizes.append(found.size)
        parent[found] = np.searchsorted(indptr, slots, side="right") - 1  # the slot's row
        via[found] = pair[slots]
        parts.append(found)
    np.maximum(depth, 0, out=depth)  # unreached vertices read depth 0
    levels = np.cumsum([0, *sizes[:-1]])  # the last level found nothing
    order, back = np.concatenate(parts), np.zeros(n, np.intp)
    back[order[1:]] = (via[order[1:]] + a.size) % (2 * a.size)  # the reverse step
    tree = TreeArrays(parent, depth, back, via, order, levels)
    for arr in tree:
        arr.setflags(write=False)
    return tree


def _climb(t: TreeArrays, values: np.ndarray) -> np.ndarray:
    """Potentials down ``t`` from good 1 at 0: each good adds the value of
    its step from its parent to the parent's potential, the one IEEE
    addition a good-by-good walk makes. A large level takes one numpy pass;
    a stretch of small levels is walked good by good, 1,024 goods at a time,
    so its Python lists stay small. A sum beyond the float range is infinite,
    without a warning."""
    p = np.zeros(t.parent.size)
    large = np.diff(t.levels) > SMALL_LEVEL
    # segments run between cuts: after good 1, at the end and around each large level
    cut = np.zeros(t.levels.size, bool)
    cut[[1, -1]] = True
    cut[:-1] |= large
    cut[1:] |= large
    cuts = t.levels[cut].tolist()
    starts = set(t.levels[:-1][large].tolist())
    with np.errstate(over="ignore"):
        for a, b in zip(cuts[:-1], cuts[1:]):
            if a in starts:
                w = t.order[a:b]
                p[w] = p[t.parent[w]] + values[t.from_parent[w]]
                continue
            for s in range(a, b, 1024):
                w = t.order[s : min(s + 1024, b)]
                for v, u, x in zip(w.tolist(), t.parent[w].tolist(), values[t.from_parent[w]].tolist()):
                    p[v] = p.item(u) + x
    return p


class FundamentalCycle(_Record):
    """One chord plus the unique tree path closing it.

    ``cycle`` starts and ends at the chord's lower endpoint and traverses the
    chord first: (k, m, ..., k).
    """

    chord: Edge
    cycle: tuple[int, ...]


def new_graph(n: int, edges: Iterable[object], *, strict: bool = False) -> MarketGraph:
    """Build a validated market graph from vertex count and edge pairs.

    Parameters
    ----------
    n : int
        Number of goods; vertices are 1..n.
    edges : iterable
        Edge pairs as 2-sequences, or as sets of one (a loop) or two vertices.
    strict : bool
        If True, a repeated undirected edge raises
        :class:`~arbx.errors.DuplicateEdgeError` instead of being merged.
    """
    return MarketGraph._of_arrays(n, *_edge_arrays(n, edges, strict)[1:])


def _edge_arrays(n: int, edges: Iterable[object], strict: bool = False) -> tuple[np.ndarray, ...]:
    """The items of ``edges`` as read, then the graph's 0-based arrays:
    distinct ``lo < hi`` ascending, and loops ascending. The first faulty
    item raises: not a vertex pair, out of range 1..n, or a strict repeat."""
    if n < 1:
        raise BadParamsError(f"vertex count must be >= 1, got {n}")
    pairs, fault = _vertex_pairs(edges, "edge", n)
    top = min(n, np.iinfo(np.int64).max)
    lo, hi = pairs.T - 1
    # pairs in range and in order, as save_graph writes them, are the arrays
    if fault is not None or not (((lo >= 0) & (lo <= hi) & (hi < top)).all() and _ascending(lo, hi).all()):
        # np.unique sorts stably, so ``first`` holds the first item of each edge
        rows, first = np.unique(np.sort(pairs, axis=1), axis=0, return_index=True)
        repeat = np.bincount(first, minlength=len(pairs)) == 0
        out = ((pairs < 1) | (pairs > top)).any(axis=1)
        bad = out | (repeat & strict)
        if bad.any():
            i, j = pairs[np.argmax(bad)].tolist()
            if out[np.argmax(bad)]:
                raise GraphIndexError(f"edge ({i}, {j}) out of range 1..{n}")
            raise DuplicateEdgeError(f"duplicate edge {(min(i, j), max(i, j))}")
        if fault is not None:
            raise fault
        lo, hi = rows.T - 1
    loop = lo == hi
    return pairs, lo[~loop], hi[~loop], lo[loop]


def is_connected(g: MarketGraph) -> bool:
    """True iff every vertex is reachable from vertex 1, ignoring loops.

    Fewer than n - 1 non-loop edges cannot connect n vertices; that answer
    costs no traversal and no storage sized by n.
    """
    return g._lo.size >= g.n - 1 and int(g._tree_arrays.levels[-1]) == g.n


def _connected_tree(g: MarketGraph) -> TreeArrays:
    """The graph's breadth-first tree; raises
    :class:`~arbx.errors.NotConnectedError` unless it spans every good."""
    if not is_connected(g):
        raise NotConnectedError("graph is not connected")
    return g._tree_arrays


def spanning_tree(g: MarketGraph) -> SpanningTree:
    """Deterministic spanning tree of a connected graph.

    Breadth-first from vertex 1 with neighbors visited in ascending index
    order, so identical graphs always yield the identical tree (and hence
    reproducible bases downstream). The search itself runs once per graph,
    over arrays (see :class:`TreeArrays`); the parent map and the tuple of
    tree edges are built on the first call and shared, and the parent map
    is read-only.
    """
    _connected_tree(g)
    return g._spanning_tree


def _ids_of(g: MarketGraph, pairs: Iterable, error: type[Exception] = NotAnEdgeError) -> np.ndarray:
    """Directed edge ids of 1-based (i, j) pairs; ``error`` names the first
    that is not an edge, such as (1, 9) on fewer goods, (True, 2) or (1, 2, 3)."""
    keys = pairs if isinstance(pairs, np.ndarray) else list(pairs)
    ij, fault = _vertex_pairs(keys, "edge", g.n)
    inside = ((ij >= 1) & (ij <= g.n)).all(axis=1)
    ids = np.where(inside, g._edge_ids(*np.where(inside, ij.T - 1, 0)), -1)
    missing = np.flatnonzero(ids < 0)
    if missing.size or fault is not None:
        k = int(missing[0]) if missing.size else len(ij)
        name = "({}, {})".format(*ij[k].tolist()) if k < len(ij) else repr(keys[k])
        raise error(f"{name} is not an edge of the graph")
    return ids


def _spanning_entries(g: MarketGraph, entries: Iterable, error: type[Exception] = NotAnEdgeError):
    """The one test of whether 1-based pairs form a spanning tree of ``g``:
    their edge ids and the breadth-first tree from good 1 over them, or None
    if they are no spanning tree (n - 1 pairs with a loop or a repeat reach
    too few goods). ``error`` names the first pair that is not an edge."""
    ids = _ids_of(g, entries, error)
    if ids.size != g.n - 1:
        return None
    src, dst = g._edge_ends
    tree = _bfs_tree(g.n, src[ids], dst[ids])
    return (ids, tree) if tree.levels[-1] == g.n else None


def _validate_tree(g: MarketGraph, t: SpanningTree) -> TreeArrays:
    """The breadth-first tree from good 1 over ``t``'s edges, once ``t`` is
    checked, in O(n + E), to be a spanning tree of ``g`` whose parent map
    leads every good to its root along those edges; goods are read like a
    graph's, so a float or a bool is none. On a tree's edges a parent map can
    cycle only by stepping back along the edge it came by, so every good
    reaches the root exactly when no two other goods step along one edge."""
    edges, fault = _vertex_pairs(t.tree_edges, "tree edge", g.n)
    if fault is not None:
        raise TreeMismatchError(str(fault))
    found = _spanning_entries(g, edges, TreeMismatchError)
    if found is None:
        raise TreeMismatchError("the tree edges do not form a spanning tree of the graph")
    try:
        goods = np.array([_vertex(v, g.n, "tree vertex") for v in (t.root, *t.parent)]) - 1
    except GraphIndexError as exc:
        raise TreeMismatchError(str(exc)) from None
    if not np.bincount(goods, minlength=g.n).all():
        raise TreeMismatchError("tree does not span all vertices")
    steps, fault = _vertex_pairs(t.parent.items(), "tree step", g.n)
    if fault is not None:
        raise TreeMismatchError(str(fault))
    tree, (v, p) = found[1], steps.T - 1
    p = np.where((p >= 0) & (p < g.n), p, v)  # a step beyond the goods steps nowhere
    up = tree.parent[v] == p
    if not ((v != p) & (up | (tree.parent[p] == v))).all():
        raise TreeMismatchError("the parent map does not step along the tree edges")
    # each step's edge, named by its end away from good 1; a repeat steps back
    child, nonroot = np.where(up, v, p), v != goods[0]
    cyclic = nonroot & (np.bincount(child[nonroot], minlength=g.n)[child] > 1)
    if cyclic.any():
        stuck = v[np.argmax(cyclic)] + 1
        raise TreeMismatchError(f"no tree path from {stuck} to root {goods[0] + 1}")
    return tree


def _tree_path(t: TreeArrays, a: int, b: int) -> list[int]:
    """Goods on the path of ``t`` from good a to good b, both inclusive."""
    up, down = [a - 1], [b - 1]
    while up[-1] != down[-1]:
        side = up if t.depth[up[-1]] >= t.depth[down[-1]] else down
        side.append(int(t.parent[side[-1]]))
    return [v + 1 for v in up + down[-2::-1]]


def fundamental_cycles(g: MarketGraph, t: SpanningTree) -> list[FundamentalCycle]:
    """One cycle per non-tree edge (chord), in ascending chord order.

    Reflexive loops are excluded; their entries are forced to zero anyway and
    are handled by the antisymmetry check. For a connected graph the list has
    exactly (edge count) - (n - 1) elements, loops not counted. ``t`` is
    checked in O(n + E), and each cycle is walked on the breadth-first tree
    over ``t``'s edges: a tree path does not depend on the root, so the
    cycles are those of ``t``.
    """
    tree = _validate_tree(g, t)
    a, b = g._lo, g._hi
    chords = (tree.parent[a] != b) & (tree.parent[b] != a)
    pairs = zip((a[chords] + 1).tolist(), (b[chords] + 1).tolist())
    return [FundamentalCycle(chord=(k, m), cycle=(k, *_tree_path(tree, m, k))) for k, m in pairs]


def enumerate_simple_cycles(
    g: MarketGraph, max_len: int | None = None, *, max_n: int = ORACLE_MAX_VERTICES
) -> list[tuple[int, ...]]:
    """Every simple cycle of ``g`` with at most ``max_len`` edges, brute force.

    Each undirected cycle is reported once, in canonical orientation: lowest
    vertex first, then the lower of its two cycle neighbors. Reflexive loops
    are reported as (v, v). Intended as a ground-truth oracle for small
    graphs; anything beyond ``max_n`` vertices is refused.
    """
    if g.n > max_n:
        raise OracleSizeError(f"{g.n} vertices exceeds the oracle limit of {max_n}")
    if max_len is None:
        max_len = max(g.n, 1)
    if max_len < 1:
        return []
    out: list[tuple[int, ...]] = [(v, v) for v in g.loops]
    adjacent = [(), *map(g.neighbors, range(1, g.n + 1))]
    # depth first from each good s on a stack of neighbor iterators, with no
    # recursion limit; a cycle lowest at s needs two neighbors above s
    for s in range(1, g.n + 1):
        if len(adjacent[s]) < 2 or adjacent[s][-2] < s:
            continue
        path, on_path, stack = [s], {s}, [iter(adjacent[s])]
        while stack:
            for w in stack[-1]:
                if w == s:
                    # canonical direction: second vertex below the last one
                    if len(path) >= 3 and path[1] < path[-1]:
                        out.append((*path, s))
                elif w > s and w not in on_path and len(path) < max_len:
                    path.append(w)
                    on_path.add(w)
                    stack.append(iter(adjacent[w]))
                    break
            else:
                stack.pop()
                on_path.discard(path.pop())
    return out


def generate_graph(
    kind: str, n: int, *, p: float | None = None, m: int | None = None, seed: int = 0
) -> MarketGraph:
    """Seeded connected test graphs.

    Kinds
    -----
    ``complete``
        Every pair trades.
    ``tree``
        Each vertex v >= 2 attaches to a uniformly random earlier vertex.
    ``gnp-connected`` (alias ``gnp``)
        Erdos-Renyi G(n, p) conditioned on connectivity by rejection.
    ``preferential-attachment`` (alias ``pa``)
        Complete seed on the first m vertices, then each new vertex attaches
        to m distinct degree-weighted targets, for exactly
        m(n - m) + m(m - 1)/2 edges and a power-tailed degree distribution.

    The same (kind, n, params, seed) always reproduces the same graph. A
    request for more than :data:`MAX_GENERATED_EDGES` edges (or candidate
    pairs) raises :class:`~arbx.errors.BadParamsError`.
    """
    if n < 1:
        raise BadParamsError(f"vertex count must be >= 1, got {n}")
    rng = random.Random(seed)
    kind = {"gnp": "gnp-connected", "pa": "preferential-attachment"}.get(kind, kind)

    if kind == "complete":
        _require_generable(kind, n, n * (n - 1) // 2)
        return new_graph(n, [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)])

    if kind == "tree":
        _require_generable(kind, n, n - 1)
        return new_graph(n, [(rng.randint(1, v - 1), v) for v in range(2, n + 1)])

    if kind == "gnp-connected":
        if p is None or not 0.0 < p <= 1.0:
            raise BadParamsError("gnp-connected requires 0 < p <= 1")
        _require_generable(kind, n, n * (n - 1) // 2)
        pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
        for _ in range(1000):
            g = new_graph(n, [e for e in pairs if rng.random() < p])
            if is_connected(g):
                return g
        raise BadParamsError(f"no connected G({n}, {p}) sample in 1000 attempts")

    if kind == "preferential-attachment":
        if m is None or m < 1 or m >= n:
            raise BadParamsError("preferential-attachment requires 1 <= m < n")
        _require_generable(kind, n, m * (n - m) + m * (m - 1) // 2)
        edges = [(i, j) for i in range(1, m) for j in range(i + 1, m + 1)]
        # one entry per unit of degree; seed vertices start at degree m - 1
        weighted = [v for v in range(1, m + 1) for _ in range(m - 1)]
        for v in range(m + 1, n + 1):
            targets: set[int] = set()
            while len(targets) < m:
                pool = weighted if weighted else list(range(1, v))
                targets.add(rng.choice(pool))
            chosen = sorted(targets)
            edges.extend((t, v) for t in chosen)
            weighted.extend(chosen)
            weighted.extend([v] * m)
        return new_graph(n, edges)

    raise BadParamsError(f"unknown graph kind {kind!r}")


def _require_generable(kind: str, n: int, count: int) -> None:
    if count > MAX_GENERATED_EDGES:
        raise BadParamsError(
            f"{kind} on {n} goods needs {count} edges or candidate pairs, "
            f"above the limit of {MAX_GENERATED_EDGES}"
        )
