"""Seeded inputs and reference answers for the arbx benchmark.

Standard library only, and independent of arbx: the graphs, the price
potentials, the planted mispricing and the perturbation deltas come from
this module's own generator, and every expected answer is derived from the
potentials. A change to arbx (its graph generator, its completion) cannot
change what is fed in or what counts as correct.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

SIZES = {
    "full": {"dense_check": 250, "sparse_pipeline": 5000, "perturb_exact": 300},
    "toy": {"dense_check": 12, "sparse_pipeline": 12, "perturb_exact": 12},
}
PA_M = 3
"""Edges per new vertex in the preferential-attachment graphs."""
MISPRICE = 1.01
"""The planted violation: one pair quoted 1% off, both directions, so its
reciprocals still agree and only cycle conditions can catch it."""
DELTA_MAX = 0.01
"""Bound on each log shift in the perturbation file."""

Edge = tuple[int, int]


@dataclass
class Market:
    """A connected market with potentials: log rate (i, j) = p[j] - p[i]."""

    n: int
    edges: list[Edge]  # undirected, i < j, ascending
    parent: dict[int, int]  # the benchmark's own spanning tree, rooted at 1
    p: list[float]  # index 0 unused

    def log_rate(self, i: int, j: int) -> float:
        return self.p[j] - self.p[i]

    @property
    def basis_entries(self) -> list[Edge]:
        """Tree entries (parent, child), ordered by child."""
        return [(self.parent[c], c) for c in sorted(self.parent)]


@dataclass
class Reference:
    """Expected answers, all in the log domain."""

    conditions: int  # antisymmetry pairs plus chords: what a fundamental-cycle check evaluates
    prices: list[float]  # prices of goods 1..n with good 1 as reference
    rates: dict[Edge, float]  # every directed edge of the consistent ensemble
    planted: Edge | None = None
    planted_gain: float = 0.0
    exact: dict[Edge, float] | None = None  # rates after the exact perturbation
    first_order: dict[Edge, float] | None = None  # rates after the first-order one


@dataclass
class Inputs:
    workload: str
    market: Market
    files: dict[str, Path]  # role -> generated file
    reference: Reference


def _potentials(n: int, rng: random.Random) -> list[float]:
    return [0.0] + [rng.uniform(-2.0, 2.0) for _ in range(n)]


def complete_market(n: int, rng: random.Random) -> Market:
    edges = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    return Market(n, edges, {v: 1 for v in range(2, n + 1)}, _potentials(n, rng))


def pa_market(n: int, m: int, rng: random.Random) -> Market:
    """Complete seed on 1..m (m >= 2), then each new vertex attaches to m
    distinct degree-weighted targets: m(n - m) + m(m - 1)/2 edges."""
    edges = [(i, j) for i in range(1, m) for j in range(i + 1, m + 1)]
    parent = {v: v - 1 for v in range(2, m + 1)}
    weighted = [v for v in range(1, m + 1) for _ in range(m - 1)]
    for v in range(m + 1, n + 1):
        targets: set[int] = set()
        while len(targets) < m:
            targets.add(rng.choice(weighted))
        chosen = sorted(targets)
        edges.extend((t, v) for t in chosen)
        parent[v] = chosen[0]
        weighted.extend(chosen)
        weighted.extend([v] * m)
    return Market(n, sorted(edges), parent, _potentials(n, rng))


def _directed(edges: list[Edge]):
    for i, j in edges:
        yield i, j
        yield j, i


def write_rates(path: Path, mk: Market, planted: Edge | None = None) -> None:
    """Both directions of every pair; the planted pair is skewed by MISPRICE."""
    lines = ["src,dst,rate\n"]
    for i, j in _directed(mk.edges):
        rate = math.exp(mk.log_rate(i, j))
        if planted == (i, j):
            rate *= MISPRICE
        elif planted == (j, i):
            rate /= MISPRICE
        lines.append(f"{i},{j},{rate!r}\n")
    path.write_text("".join(lines), encoding="utf-8")


def _write_json(path: Path, doc: object) -> None:
    path.write_text(json.dumps(doc), encoding="utf-8")


def _tree_potentials(mk: Market, step: dict[int, float]) -> list[float]:
    """Potentials with q[1] = 0 and q[child] = q[parent] + step[child]."""
    q = [0.0] * (mk.n + 1)
    for c in sorted(mk.parent):  # parents precede children in both generators
        q[c] = q[mk.parent[c]] + step[c]
    return q


def build(workload: str, seed: int, scale: str, workdir: Path) -> Inputs:
    """Generate one workload's files under ``workdir`` and its reference."""
    rng = random.Random(f"arbx-bench/{workload}/{seed}")
    n = SIZES[scale][workload]
    mk = complete_market(n, rng) if workload == "dense_check" else pa_market(n, PA_M, rng)
    ref = Reference(
        conditions=2 * len(mk.edges) - (n - 1),
        prices=[mk.p[v] - mk.p[1] for v in range(1, n + 1)],
        rates={(i, j): mk.log_rate(i, j) for i, j in _directed(mk.edges)},
    )
    files: dict[str, Path] = {}

    if workload == "dense_check":
        ref.planted = tuple(sorted(rng.sample(range(2, n + 1), 2)))  # a chord of the star at 1
        ref.planted_gain = math.log(MISPRICE)
        files["rates_ok"] = workdir / "rates_ok.csv"
        files["rates_bad"] = workdir / "rates_bad.csv"
        write_rates(files["rates_ok"], mk)
        write_rates(files["rates_bad"], mk, ref.planted)

    elif workload == "sparse_pipeline":
        files["graph"] = workdir / "graph.json"
        files["basis"] = workdir / "basis.json"
        entries = mk.basis_entries
        _write_json(files["graph"], {"n": n, "edges": [list(e) for e in mk.edges]})
        _write_json(
            files["basis"],
            {"entries": [list(e) for e in entries], "values": [mk.log_rate(i, j) for i, j in entries]},
        )

    elif workload == "perturb_exact":
        entries = mk.basis_entries
        deltas = {c: rng.uniform(-DELTA_MAX, DELTA_MAX) for _, c in entries}
        q = _tree_potentials(mk, deltas)
        ref.exact = {(i, j): v + q[j] - q[i] for (i, j), v in ref.rates.items()}
        ref.first_order = {(i, j): v + math.log1p(q[j] - q[i]) for (i, j), v in ref.rates.items()}
        files["rates"] = workdir / "rates.csv"
        files["delta"] = workdir / "delta.json"
        write_rates(files["rates"], mk)
        _write_json(
            files["delta"],
            {"basis": {"entries": [list(e) for e in entries]}, "deltas": [deltas[c] for _, c in entries]},
        )

    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Inputs(workload, mk, files, ref)
