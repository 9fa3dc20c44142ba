"""Shared builders for randomized test instances.

Everything is seeded: the same seed always yields the same graph, assignment,
or matrix, so failures reproduce.
"""

import contextlib
import csv
import functools
import io
import json
import math
import operator
import random
import re
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
    OracleSizeError,
    ParseError,
    ReciprocalConflictError,
    TreeMismatchError,
)
from arbx.exchange import RateMatrix, _antisymmetry_gains, _verdict, require_tol
from arbx.graph import ORACLE_MAX_VERTICES, _connected_tree, _vertex, _vertex_pairs, is_connected, new_graph
from arbx.io import RatesFile, _label_table

KINDS = ("tree", "gnp-connected", "preferential-attachment", "complete")

# the metrics main stamps that differ from run to run: the run's time, the
# spans of the layers that ran, and the process's peak resident set
RUN_METRICS = ("elapsed_ms", "parse_ms", "tree_ms", "check_ms", "write_ms", "peak_rss_mb")
_RUN_VALUE = re.compile(r"\b(%s)(\"?[:=] ?)[0-9.e+-]+" % "|".join(RUN_METRICS))


def steady(report):
    """``report`` without what differs from run to run, the metrics of
    RUN_METRICS: a report dict loses them (in place, and is returned), and
    a printed report, json or text, keeps their names but not their values."""
    if isinstance(report, str):
        return _RUN_VALUE.sub(r"\1\2", report)
    for key in RUN_METRICS:
        report["metrics"].pop(key, None)
    return report
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
    ``cycle_log_gain``, then the worst failing condition as the witness.
    On a consistent market ``max_abs_log_gain`` is the largest |loop value|,
    |antisymmetry sum| or |chord residual| (``reference_residuals``)."""
    require_tol(tol)
    g = e.graph
    arr = e.entries
    conditions = []
    for v in g.loops:
        conditions.append(((v, v), (v, v), float(arr[v - 1, v - 1])))
    for i, j in g.simple_edges:
        # Python floats: the same sum, and infinite past the range without a warning
        conditions.append(((i, j), (i, j, i), float(arr[i - 1, j - 1]) + float(arr[j - 1, i - 1])))
    fixed = [gain for _, _, gain in conditions]
    for fc in fundamental_cycles(g, spanning_tree(g)):
        conditions.append((fc.chord, fc.cycle, cycle_log_gain(e, fc.cycle)))
    max_abs = max((abs(gain) for _, _, gain in conditions), default=0.0)
    bad = [c for c in conditions if abs(c[2]) > tol]
    if not bad:
        # a residual is NaN where both potentials overflow the float range to one sign
        screened = [abs(x) for x in (*fixed, *reference_residuals(e)) if x == x]
        return CheckResult(True, None, len(conditions), max(screened, default=0.0))
    _, cycle, gain = min(bad, key=lambda c: (-abs(c[2]), c[0]))
    mult = math.exp(gain) if gain <= math.log(sys.float_info.max) else math.inf
    witness = ArbitrageWitness(cycle=tuple(cycle), log_gain=gain, multiplicative_gain=mult)
    return CheckResult(False, witness, len(conditions), max_abs)


def reference_residuals(e):
    """Each chord's residual e(k, m) - (p[m] - p[k]), in ascending chord
    order, over the potentials that ``reference_potentials`` walks down the
    spanning tree's entries (parent, child)."""
    g = e.graph
    src, dst = g._edge_ends
    value = dict(zip(zip((src + 1).tolist(), (dst + 1).tolist()), e.values.tolist()))
    tree = spanning_tree(g).tree_edges
    p = reference_potentials(g.n, tree, [value[ij] for ij in tree])
    edges = {(min(i, j), max(i, j)) for i, j in tree}
    return [value[(k, m)] - (p[m - 1] - p[k - 1]) for k, m in g.simple_edges if (k, m) not in edges]


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
    # rows end only at CR, LF or CRLF outside quotes; each is numbered by
    # the line it starts on
    reader = csv.reader(io.StringIO(text, newline=""))
    table, start = [], 1
    for row in reader:
        table.append((start, row))
        start = reader.line_num + 1
    if not table or [c.strip().lower() for c in table[0][1]] != ["src", "dst", "rate"]:
        raise ParseError(f"{path}: first line must be the header 'src,dst,rate'")
    rows = []
    for lineno, row in table[1:]:
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


# --- the chord climb and the adjacency as they were before the climb ran in
# --- batches and the adjacency was placed by counting, kept as references


def reference_chord_gains(v, t, chords, k, m):
    """Every chord's fundamental-cycle gain, all chords climbing in one
    lock-step pass whose k-side steps are all recorded, then added in
    reverse, top first."""
    gains = 0.0 + v[chords]
    if not chords.size:
        return gains
    up, down = v[t.to_parent], v[t.from_parent]
    m_deeper, k_deeper = t.depth[m] > t.depth[k], t.depth[k] > t.depth[m]
    x, y = np.where(m_deeper, t.parent[m], m), np.where(k_deeper, t.parent[k], k)
    gains[m_deeper] += up[m[m_deeper]]
    steps = [(k_deeper, down[k[k_deeper]])]
    live = np.flatnonzero(x != y)
    x, y = x[live], y[live]
    while live.size:
        gains[live] += up[x]
        steps.append((live, down[y]))
        px, py = t.parent[x], t.parent[y]
        keep = px != py
        live, x, y = live[keep], px[keep], py[keep]
    for rows, values in reversed(steps):
        gains[rows] += values
    return gains


def reference_csr(n, a, b):
    """(indptr, nbrs, pair) of ``graph._csr`` from one argsort of every
    step's key src * n + dst, the steps listed a -> b, then b -> a."""
    src, dst = np.concatenate([a, b]), np.concatenate([b, a])
    key = src.astype(np.int64, copy=False) * n
    key += dst
    pair = np.argsort(key)
    indptr = np.zeros(n + 1, np.intp)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst[pair], pair


# --- the brute-force oracle as it was before it read its cycles' steps from
# --- one value table and walked them without recursion, kept as the reference


def reference_simple_cycles(g, max_len=None, *, max_n=ORACLE_MAX_VERTICES):
    """``enumerate_simple_cycles`` as a recursive depth-first search, one
    ``g.neighbors`` call per step."""
    if g.n > max_n:
        raise OracleSizeError(f"{g.n} vertices exceeds the oracle limit of {max_n}")
    if max_len is None:
        max_len = max(g.n, 1)
    if max_len < 1:
        return []
    out = [(v, v) for v in g.loops]
    for s in range(1, g.n + 1):
        _reference_extend_cycles(g, s, [s], {s}, max_len, out)
    return out


def _reference_extend_cycles(g, s, path, on_path, max_len, out):
    u = path[-1]
    for w in g.neighbors(u):
        if w == s:
            # canonical direction: second vertex below the last one
            if len(path) >= 3 and path[1] < path[-1]:
                out.append((*path, s))
        elif w > s and w not in on_path and len(path) < max_len:
            path.append(w)
            on_path.add(w)
            _reference_extend_cycles(g, s, path, on_path, max_len, out)
            path.pop()
            on_path.discard(w)


def reference_oracle(e, tol=1e-9, *, max_n=ORACLE_MAX_VERTICES):
    """``check_no_arbitrage_oracle`` as one ``cycle_log_gain`` call per cycle
    of the recursive enumeration."""
    require_tol(tol)
    if e.graph.n > max_n:
        raise OracleSizeError(f"{e.graph.n} vertices exceeds the oracle limit of {max_n}")
    _connected_tree(e.graph)
    _, sums = _antisymmetry_gains(e)
    conditions = [((i, j), (i, j, i), s) for (i, j), s in zip(e.graph.simple_edges, sums.tolist())]
    for cycle in reference_simple_cycles(e.graph, max_n=max_n):
        conditions.append(((cycle[0], cycle[1]), cycle, cycle_log_gain(e, cycle)))
    return _verdict(conditions, tol)


# --- exact arithmetic, the reference that no float path shares


EXACT_SCALE = 2**1074
"""Every float is an integer multiple of 2**-1074, the smallest subnormal."""


def exact_units(x: float) -> int:
    """``x`` as the exact integer count of 2**-1074 it holds."""
    num, den = x.as_integer_ratio()  # den is a power of 2, at most 2**1074
    return num << (1075 - den.bit_length())


@functools.lru_cache(maxsize=8)
def _exact_cycles(g):
    """The tree of ``reference_bfs`` and each chord (k, m), ascending, with
    the good where its two climbs meet, kept for the next matrix on ``g``."""
    tree = reference_bfs(g)
    parent, depth = tree.parent, {1: 0}
    for u, w in tree.tree_edges:
        depth[w] = depth[u] + 1
    edges = {(min(u, w), max(u, w)) for u, w in tree.tree_edges}
    cycles = []
    for k, m in g.simple_edges:
        if (k, m) in edges:
            continue
        x, y = m, k
        while x != y:
            if depth[x] >= depth[y]:
                x = parent[x]
            else:
                y = parent[y]
        cycles.append((k, m, x))
    return tree, cycles


def exact_gains(e):
    """Each fundamental cycle's exact log gain, in units of 2**-1074, in
    ascending chord order: the chord's value, the values of the tree steps
    from m up to where the climbs meet, then down to k, added as Python
    integers. Shares no code with the library's walks: the tree is
    ``reference_bfs``'s, each up and down sum a difference of two exact
    sums along the root paths."""
    g = e.graph
    tree, cycles = _exact_cycles(g)
    src, dst = g._edge_ends
    value = dict(zip(zip((src + 1).tolist(), (dst + 1).tolist()), map(exact_units, e.values.tolist())))
    down, up = {1: 0}, {1: 0}  # exact sums of the steps from good 1 to x, and from x to good 1
    for u, w in tree.tree_edges:
        down[w] = down[u] + value[(u, w)]
        up[w] = up[u] + value[(w, u)]
    return [value[(k, m)] + (up[m] - up[top]) + (down[k] - down[top]) for k, m, top in cycles]


# --- the CLI chain's markets, built through the CLI as a user builds them


def _not_json(token):
    raise ValueError(f"{token} is not JSON")


def strict_json(text):
    """``text`` read as strict JSON: NaN, Infinity and -Infinity, which
    json.loads takes but JSON does not have, are refused."""
    return json.loads(text, parse_constant=_not_json)


def cli_json(*argv):
    """(exit code, report) of ``arbx.cli.main`` run in this process on argv
    in JSON; the report must be strict JSON."""
    from arbx.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*map(str, argv), "--format", "json"])
    return code, strict_json(out.getvalue())


def cli_chain(d, name, *gen, values=lambda count: [0.01 * k for k in range(count)]):
    """gen -> basis -> complete, each of which must report ok: gen's graph
    (seed 1) in ``d/name.json``, the basis report's entries valued by
    ``values`` in ``d/name_basis.json`` and the completed sheet in
    ``d/name.csv``. Returns the three reports."""
    graph, basis, rates = d / f"{name}.json", d / f"{name}_basis.json", d / f"{name}.csv"
    reports = [cli_json("gen", *gen, "--seed", "1", "--out", graph), cli_json("basis", "--graph", graph)]
    entries = reports[1][1]["data"]["entries"]
    basis.write_text(json.dumps({"entries": entries, "values": values(len(entries))}))
    reports.append(cli_json("complete", "--graph", graph, "--basis", basis, "--out", rates))
    assert all(code == 0 and doc["verdict"] == "ok" for code, doc in reports), reports
    strict_json(graph.read_text())
    return [doc for _, doc in reports]


def pa70k_chain(d):
    """The chain on a pa market of 70,000 goods (m = 2), past the 2^16 goods
    of the adjacency's 16-bit radix passes: ``d/pa70k.csv`` and its sources."""
    return cli_chain(d, "pa70k", "--kind", "pa", "--n", "70000", "--m", "2",
                     values=lambda count: [0.001 * (k % 997) for k in range(count)])


def mispriced(rates, basis, out):
    """``rates`` with one chord mispriced, written to ``out``: the first row
    whose pair is no entry of ``basis`` names the chord (i, j), i < j; its
    quote i -> j is scaled by 1.01 and j -> i by 1/1.01, so the reciprocals
    still agree. Returns [i, j]."""
    tree = {frozenset(e) for e in json.loads(Path(basis).read_text())["entries"]}
    rows = list(csv.reader(Path(rates).read_text().splitlines()))
    chord = next(sorted(map(int, r[:2])) for r in rows[1:] if frozenset(map(int, r[:2])) not in tree)
    for r in rows[1:]:
        if sorted(map(int, r[:2])) == chord:
            r[2] = repr(float(r[2]) * 1.01 if int(r[0]) == chord[0] else float(r[2]) / 1.01)
    with open(out, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return chord


def deep_ring(n=3000, skew=False):
    """The sheet of a ring of ``n`` goods, its tree n/2 deep and one chord:
    i.i.d. log prices p in +-2 (seed 1), each pair quoted both ways at
    e^(p[j] - p[i]). With ``skew``, quote 1 -> 2 is scaled by 1.01 and
    2 -> 1 by 1/1.01: a 1% error on the tree edge 1-2."""
    rng = random.Random(1)
    p = [rng.uniform(-2, 2) for _ in range(n + 1)]
    pairs = sorted({(min(v, v % n + 1), max(v, v % n + 1)) for v in range(1, n + 1)})
    scale = {(1, 2): 1.01, (2, 1): 1 / 1.01} if skew else {}
    rows = (f"{i},{j},{math.exp(p[j] - p[i]) * scale.get((i, j), 1.0)!r}\n" for a, b in pairs for i, j in ((a, b), (b, a)))
    return "src,dst,rate\n" + "".join(rows)
