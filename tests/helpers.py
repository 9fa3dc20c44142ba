"""Shared builders for randomized test instances.

Everything is seeded: the same seed always yields the same graph, assignment,
or matrix, so failures reproduce.
"""

import csv
import io
import json
import math
import operator
import random
import sys
from collections import deque
from pathlib import Path

import numpy as np

from arbx import (
    ArbitrageWitness,
    BasisAssignment,
    CheckResult,
    FundamentalCycle,
    MarketGraph,
    SpanningTree,
    canonical_basis,
    complete,
    cycle_log_gain,
    fundamental_cycles,
    generate_graph,
    spanning_tree,
)
from arbx.errors import (
    BadParamsError,
    DuplicateEdgeError,
    GraphIndexError,
    NotConnectedError,
    ParseError,
    ReciprocalConflictError,
    TreeMismatchError,
)
from arbx.exchange import RateMatrix, require_tol
from arbx.graph import _vertex, _vertex_pairs, is_connected, new_graph
from arbx.io import RatesFile, _label_table

KINDS = ("tree", "gnp-connected", "preferential-attachment", "complete")
CYCLIC_KINDS = ("gnp-connected", "preferential-attachment", "complete")


def random_connected_graph(seed, n_lo=2, n_hi=8, require_chord=False) -> MarketGraph:
    rng = random.Random(seed)
    if require_chord:
        n = rng.randint(max(n_lo, 3), max(n_hi, 3))
        kind = rng.choice(CYCLIC_KINDS)
        g = _gen(kind, n, rng)
        while len(g.simple_edges) <= g.n - 1:
            g = _gen(kind, n, rng)
        return g
    return _gen(rng.choice(KINDS), rng.randint(n_lo, n_hi), rng)


def _gen(kind, n, rng) -> MarketGraph:
    seed = rng.randrange(2**32)
    if kind == "gnp-connected":
        return generate_graph(kind, n, p=0.6, seed=seed)
    if kind == "preferential-attachment":
        return generate_graph(kind, n, m=min(2, n - 1), seed=seed)
    return generate_graph(kind, n, seed=seed)


def random_assignment(g: MarketGraph, seed, scale=2.0) -> BasisAssignment:
    rng = random.Random(seed)
    spec = canonical_basis(g)
    return BasisAssignment(
        spec=spec, values=tuple(rng.uniform(-scale, scale) for _ in spec.entries)
    )


def random_log_matrix(g: MarketGraph, seed, scale=2.0):
    return complete(random_assignment(g, seed, scale=scale))


def chords_of(g: MarketGraph, spec) -> list[tuple[int, int]]:
    tree = {(min(i, j), max(i, j)) for i, j in spec.entries}
    return [e for e in g.simple_edges if e not in tree]


def reference_check_no_arbitrage(e, tol=1e-9):
    """The per-chord checker, kept as the reference for the array version:
    antisymmetry conditions, then each fundamental cycle's gain summed by
    ``cycle_log_gain``, then the worst failing condition as the witness."""
    require_tol(tol)
    g = e.graph
    arr = e.entries
    conditions = []
    for v in g.loops:
        conditions.append(((v, v), (v, v), float(arr[v - 1, v - 1])))
    for i, j in g.simple_edges:
        # Python floats: the same sum, and infinite past the range without a warning
        conditions.append(((i, j), (i, j, i), float(arr[i - 1, j - 1]) + float(arr[j - 1, i - 1])))
    for fc in fundamental_cycles(g, spanning_tree(g)):
        conditions.append((fc.chord, fc.cycle, cycle_log_gain(e, fc.cycle)))
    max_abs = max((abs(gain) for _, _, gain in conditions), default=0.0)
    bad = [c for c in conditions if abs(c[2]) > tol]
    if not bad:
        return CheckResult(True, None, len(conditions), max_abs)
    _, cycle, gain = min(bad, key=lambda c: (-abs(c[2]), c[0]))
    mult = math.exp(gain) if gain <= math.log(sys.float_info.max) else math.inf
    witness = ArbitrageWitness(cycle=tuple(cycle), log_gain=gain, multiplicative_gain=mult)
    return CheckResult(False, witness, len(conditions), max_abs)


def reference_load_rates(path, tol=1e-9):
    """The per-quote rates loader, kept as the reference for the column
    version: one row at a time into a dict of quotes, then reciprocal pairs,
    fills, ``new_graph`` and ``RateMatrix.from_quotes``."""
    require_tol(tol)
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: invalid byte at offset {exc.start}") from None
    table = list(csv.reader(text.splitlines()))
    if not table or [c.strip().lower() for c in table[0]] != ["src", "dst", "rate"]:
        raise ParseError(f"{path}: first line must be the header 'src,dst,rate'")
    rows = []
    for lineno, row in enumerate(table[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != 3:
            raise ParseError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
        src, dst, rate = (c.strip() for c in row)
        if not src or not dst:
            raise ParseError(f"{path}:{lineno}: empty src or dst")
        rows.append((lineno, (src, dst, rate)))
    if not rows:
        raise ParseError(f"{path}: no rate rows")
    labels, to_index = _label_table(path, {t for _, (s, d, _) in rows for t in (s, d)})

    quotes = {}
    for lineno, (src, dst, rate_text) in rows:
        try:
            rate = float(rate_text)
        except ValueError:
            raise ParseError(f"{path}:{lineno}: rate {rate_text!r} is not a number") from None
        if not math.isfinite(rate) or rate <= 0.0:
            raise ParseError(f"{path}:{lineno}: rate must be positive and finite, got {rate_text}")
        if not math.isfinite(1.0 / rate):
            raise ParseError(f"{path}:{lineno}: rate {rate_text} is too small: its reciprocal overflows")
        key = (to_index(src), to_index(dst))
        if key in quotes:
            raise ParseError(f"{path}:{lineno}: duplicate quote {src}->{dst}")
        quotes[key] = rate

    for (i, j), rate in sorted(quotes.items()):
        if i >= j or (j, i) not in quotes:
            continue
        drift = math.log(rate) + math.log(quotes[(j, i)])
        if abs(drift) > tol:
            raise ReciprocalConflictError(
                f"{path}: quotes {labels[i - 1]}->{labels[j - 1]} and "
                f"{labels[j - 1]}->{labels[i - 1]} multiply to "
                f"{rate * quotes[(j, i)]:.12g}, not 1"
            )

    filled = []
    for (i, j), rate in sorted(quotes.items()):
        if i != j and (j, i) not in quotes:
            filled.append((j, i))
    for j, i in filled:
        quotes[(j, i)] = 1.0 / quotes[(i, j)]

    graph = new_graph(len(labels), {(min(i, j), max(i, j)) for i, j in quotes})
    if not is_connected(graph):
        raise NotConnectedError(f"{path}: the quoted pairs do not connect every good")
    return RatesFile(
        matrix=RateMatrix.from_quotes(graph, quotes), labels=labels, filled=tuple(filled)
    )


def reference_new_graph(n, edges, *, strict=False):
    """The per-item ``new_graph`` loop, kept as the reference for the array
    reader: each item unpacked (a set sorted), its vertices checked, range
    checked and deduplicated in order, so the first faulty item decides.
    Its one change from the original loop: a bool is not a vertex."""
    if n < 1:
        raise BadParamsError(f"vertex count must be >= 1, got {n}")
    seen = set()
    for item in edges:
        if isinstance(item, (set, frozenset)):
            vals = sorted(item)
            if len(vals) == 1:
                raw_i = raw_j = vals[0]
            elif len(vals) == 2:
                raw_i, raw_j = vals
            else:
                raise BadParamsError(f"edge {item!r} is not a vertex pair")
        else:
            try:
                raw_i, raw_j = item
            except (TypeError, ValueError) as exc:
                raise BadParamsError(f"edge {item!r} is not a vertex pair") from exc
        try:
            if isinstance(raw_i, (bool, np.bool_)) or isinstance(raw_j, (bool, np.bool_)):
                raise TypeError("a bool is not a vertex")
            i, j = operator.index(raw_i), operator.index(raw_j)
        except TypeError as exc:
            raise BadParamsError(f"edge {item!r} has non-integer vertices") from exc
        if not (1 <= i <= n and 1 <= j <= n):
            raise GraphIndexError(f"edge ({i}, {j}) out of range 1..{n}")
        key = (i, j) if i <= j else (j, i)
        if key in seen:
            if strict:
                raise DuplicateEdgeError(f"duplicate edge {key}")
            continue
        seen.add(key)
    return MarketGraph(n=n, edges=frozenset(seen))


# --- the queue-driven tree walks, kept as references for the level-by-level ones


def reference_bfs(g):
    """Breadth-first tree from vertex 1 over a dict adjacency and a deque,
    neighbors ascending; spans only vertex 1's component."""
    nbrs = {v: [] for v in range(1, g.n + 1)}
    for i, j in g.simple_edges:
        nbrs[i].append(j)
        nbrs[j].append(i)
    parent, tree_edges = {}, []
    queue = deque([1])
    while queue:
        u = queue.popleft()
        for w in sorted(nbrs[u]):
            if w != 1 and w not in parent:
                parent[w] = u
                tree_edges.append((u, w))
                queue.append(w)
    return SpanningTree(root=1, parent=parent, tree_edges=tuple(tree_edges))


def reference_tree_arrays(g):
    """(parent, depth, to_parent, from_parent) of ``reference_bfs`` as
    0-based lists, filled one tree edge at a time in discovery order."""
    parent, depth = list(range(g.n)), [0] * g.n
    to_parent, from_parent = [0] * g.n, [0] * g.n
    e = len(g.simple_edges)
    index = {edge: k for k, edge in enumerate(g.simple_edges)}
    for u, w in reference_bfs(g).tree_edges:
        parent[w - 1], depth[w - 1] = u - 1, depth[u - 1] + 1
        k = index[(min(u, w), max(u, w))]
        # id k runs from the lower end to the higher, id e + k back
        down, up = (k, e + k) if u < w else (e + k, k)
        from_parent[w - 1], to_parent[w - 1] = down, up
    return parent, depth, to_parent, from_parent


def reference_potentials(n, entries, values):
    """Potentials of a spanning tree's entries: entry (i, j) = v pins
    p[j-1] - p[i-1] = v; a deque walks the tree from good 1 over per-vertex
    lists of signed steps, one addition per vertex."""
    signed = [[] for _ in range(n)]
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


# --- the dense n x n implementations, kept as references for the edge-value ones


def reference_differences(g, prices):
    """Dense log matrix: entry (i, j) = prices[j-1] - prices[i-1] on every
    non-loop edge, else 0."""
    arr = np.zeros((g.n, g.n))
    for i, j in g.simple_edges:
        d = prices[j - 1] - prices[i - 1]
        arr[i - 1, j - 1] = d
        arr[j - 1, i - 1] = -d
    return arr


def reference_complete(spec, values):
    """Dense completion: potential differences, then the basis values exactly."""
    g = spec.graph
    arr = reference_differences(g, reference_potentials(g.n, spec.entries, values))
    for (i, j), val in zip(spec.entries, values):
        arr[i - 1, j - 1] = val
        arr[j - 1, i - 1] = -val
    return arr


def reference_log_of(r):
    """Dense entrywise log of a rate matrix."""
    return np.log(r.entries)


def reference_exp_of(e):
    """Dense entrywise exp of a log matrix."""
    return np.exp(e.entries)


def reference_rate_rows(entries, graph, labels):
    """[src, dst, rate] rows read off a dense matrix: both directions per
    pair, loops once, in ascending edge order."""
    rows = []
    for i, j in sorted(graph.edges):
        rows.append([labels[i - 1], labels[j - 1], float(entries[i - 1, j - 1])])
        if i != j:
            rows.append([labels[j - 1], labels[i - 1], float(entries[j - 1, i - 1])])
    return rows


def same_bits(a, b) -> bool:
    """Equal shape and equal float64 bit patterns (so 0.0 differs from -0.0)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# --- the writers as they were before they rendered in C passes, kept as
# --- references for the byte-identical ones


def reference_graph_text(g) -> str:
    """A graph file's text: ``g.edges`` sorted, through json.dumps."""
    doc = {"n": g.n, "edges": [list(e) for e in sorted(g.edges)]}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def reference_rates_text(r, labels=None) -> str:
    """A rates file's text: every row through ``csv.writer``."""
    names = tuple(labels) if labels else tuple(str(i) for i in range(1, r.n + 1))
    out = io.StringIO(newline="")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["src", "dst", "rate"])
    writer.writerows(reference_rate_rows(r.entries, r.graph, names))
    return out.getvalue()


# --- the tree check and walk as they were before they ran on the tree's
# --- arrays, kept as the reference for fundamental_cycles


def reference_fundamental_cycles(g, t):
    """``fundamental_cycles`` over sets of tuples and the parent map: the
    tree's edges checked as a set against ``g.simple_edges``, every good's
    climb to the root walked, and each chord's path cut where the climbs of
    its two ends meet."""
    tree_edges = _reference_validate_tree(g, t)
    out = []
    for k, m in g.simple_edges:
        if (k, m) not in tree_edges:
            out.append(FundamentalCycle(chord=(k, m), cycle=(k, *_reference_tree_path(t, m, k))))
    return out


def _reference_validate_tree(g, t):
    def undirected(items, what):
        pairs, fault = _vertex_pairs(items, what, g.n)
        if fault is not None:
            raise TreeMismatchError(str(fault))
        return set(zip(pairs.min(axis=1).tolist(), pairs.max(axis=1).tolist()))

    tree_edges = undirected(t.tree_edges, "tree edge")
    if len(t.tree_edges) != g.n - 1 or len(tree_edges) != g.n - 1:
        raise TreeMismatchError("a spanning tree needs exactly n-1 distinct edges")
    if not tree_edges <= set(g.simple_edges):
        raise TreeMismatchError("tree edge not present in the graph")
    try:
        goods = {_vertex(v, g.n, "tree vertex") for v in (t.root, *t.parent)}
    except GraphIndexError as exc:
        raise TreeMismatchError(str(exc)) from None
    if len(goods) != g.n:
        raise TreeMismatchError("tree does not span all vertices")
    if undirected(((v, t.parent[v]) for v in t.parent), "tree step") != tree_edges:
        raise TreeMismatchError("the parent map does not step along the tree edges")
    for v in t.parent:
        t.path_to_root(v)
    return tree_edges


def _reference_tree_path(t, a, b):
    pa = t.path_to_root(a)
    pb = t.path_to_root(b)
    on_pa = set(pa)
    for cut, v in enumerate(pb):
        if v in on_pa:
            return pa[: pa.index(v) + 1] + pb[:cut][::-1]
    raise TreeMismatchError(f"vertices {a} and {b} share no tree path")


# --- the report's infinity screen as it was before it copied plain lists
# --- whole, kept as the reference for RunReport.to_dict


def reference_inf_to_none(value):
    if isinstance(value, float):
        return None if math.isinf(value) else value
    if isinstance(value, list):
        return [reference_inf_to_none(item) for item in value]
    return value
