"""The ops of each workload, and the spans the traced run records.

Every op exists twice: as arbx CLI arguments (run in a child process) and as
the same sequence of public arbx calls made in-process. Both sides reduce
their output to one plain dict, and one check compares it with the
reference from ``inputs``.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from arbx import (
    apply_exact,
    build_operator,
    canonical_basis,
    check_no_arbitrage,
    complete,
    dimension,
    exp_of,
    fundamental_cycles,
    is_connected,
    log_of,
    price_vector,
    propagate_log,
    propagate_multiplicative_first_order,
    spanning_tree,
)
from arbx.io import (
    file_digest,
    load_basis,
    load_graph,
    load_perturbation,
    load_rates,
    save_rates,
)

from inputs import Inputs, Reference

TOL = 1e-9
"""Largest log-domain distance from the reference that still counts as correct."""


class Tracer:
    """Spans around the public arbx calls the benchmark makes, grouped by op.

    Calls inside an op are sequential, never nested, so a span's duration is
    its self time. With ``enabled`` false every call goes straight through.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.ops: list[dict[str, float]] = []

    def begin_op(self) -> None:
        if self.enabled:
            self.ops.append(defaultdict(float))

    def call(self, name: str, fn: Callable, *args, **kwargs):
        if not self.enabled:
            return fn(*args, **kwargs)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.ops[-1][name + ".ms"] += (time.perf_counter() - t0) * 1000.0

    def read(self, name: str, fn: Callable, path: Path, *args, **kwargs):
        """An io call that reads ``path``; its size counts into io.bytes_read."""
        out = self.call(name, fn, path, *args, **kwargs)
        self.count("io.bytes_read", os.path.getsize(path))
        return out

    def count(self, name: str, value: float) -> None:
        if self.enabled:
            self.ops[-1][name] += value

    def medians(self) -> dict[str, float]:
        """Per metric, the median over the ops that recorded it."""
        values: dict[str, list[float]] = defaultdict(list)
        for op in self.ops:
            for name, v in op.items():
                values[name].append(v)
        return {name: float(np.median(vs)) for name, vs in values.items()}


@dataclass(frozen=True)
class Op:
    name: str  # the mix entry, e.g. "check_bad"
    command: str  # the CLI command it times, e.g. "check" or "perturb_exact"
    argv: tuple[str, ...]  # arguments after `python -m arbx.cli`
    lib: Callable[[Tracer], dict]  # the same op through the public API
    expect: Callable[[dict], str | None]  # problem with a reduced result, or None
    quotes: int  # directed edge quotes the op handles

    def check_report(self, exit_code: int, stdout: bytes) -> str | None:
        """Problem with the CLI child's ``--format json`` report, or None."""
        return self.expect(from_report(self.command, exit_code, json.loads(stdout)))


# --- in-process ops: the public calls each CLI command makes ---------------


def _load_rates(t: Tracer, path: Path):
    rates = t.read("io.load_rates", load_rates, path)
    g = rates.matrix.graph
    t.count("io.quote_rows", 2 * len(g.simple_edges) + len(g.loops) - len(rates.filled))
    return rates


def _lib_check(t: Tracer, path: Path) -> dict:
    rates = _load_rates(t, path)
    res = t.call(
        "exchange.check_no_arbitrage",
        check_no_arbitrage,
        t.call("exchange.log_of", log_of, rates.matrix),
    )
    t.count("exchange.cycles_checked", res.cycles_checked)
    t.read("io.file_digest", file_digest, path)
    w = res.witness
    return {
        "exit": 0 if res.ok else 2,
        "verdict": "ok" if res.ok else "violation",
        "cycles_checked": res.cycles_checked,
        "max_abs_log_gain": res.max_abs_log_gain,
        "witness": None if w is None else (list(w.cycle), w.log_gain),
        "graph": rates.matrix.graph,
    }


def _lib_price(t: Tracer, path: Path) -> dict:
    rates = _load_rates(t, path)
    ref = rates.index_of("1")
    pv = t.call(
        "basis.price_vector", price_vector, t.call("exchange.log_of", log_of, rates.matrix), ref
    )
    t.read("io.file_digest", file_digest, path)
    return {"exit": 0, "verdict": "ok", "prices": list(pv.prices), "graph": rates.matrix.graph}


def _lib_basis(t: Tracer, path: Path) -> dict:
    g = t.read("io.load_graph", load_graph, path)
    spec = t.call("basis.canonical_basis", canonical_basis, g)
    t.read("io.file_digest", file_digest, path)
    return {"exit": 0, "verdict": "ok", "entries": [list(e) for e in spec.entries], "graph": g}


def _lib_complete(t: Tracer, graph: Path, basis: Path, out: Path) -> dict:
    g = t.read("io.load_graph", load_graph, graph)
    assignment = t.read("io.load_basis", load_basis, basis, g)
    rates = t.call("exchange.exp_of", exp_of, t.call("basis.complete", complete, assignment))
    t.call("io.save_rates", save_rates, out, rates)
    t.count("io.bytes_written", os.path.getsize(out))
    t.call("basis.dimension", dimension, g)
    t.read("io.file_digest", file_digest, graph)
    t.read("io.file_digest", file_digest, basis)
    return {"exit": 0, "verdict": "ok", "rows": 2 * len(g.simple_edges) + len(g.loops), "out": out, "graph": g}


def _lib_perturb(t: Tracer, rates_path: Path, delta_path: Path, exact: bool) -> dict:
    rates = _load_rates(t, rates_path)
    g = rates.matrix.graph
    state = t.call("exchange.log_of", log_of, rates.matrix)
    pert = t.read("io.load_perturbation", load_perturbation, delta_path, g)
    op = t.call("dynamics.build_operator", build_operator, pert.spec)
    d_log = t.call("dynamics.propagate_log", propagate_log, op, pert)
    if exact:
        _, updated = t.call("dynamics.apply_exact", apply_exact, state, d_log)
        entries = updated.entries
    else:
        step = t.call(
            "dynamics.propagate_multiplicative_first_order",
            propagate_multiplicative_first_order,
            rates.matrix,
            d_log,
        )
        entries = rates.matrix.entries + step
    t.read("io.file_digest", file_digest, rates_path)
    t.read("io.file_digest", file_digest, delta_path)
    rows = [(i, j, float(entries[i - 1, j - 1])) for i, j in _directed_edges(g)]
    return {"exit": 0, "verdict": "ok", "rates": rows, "graph": g, "operator": op}


def _directed_edges(g) -> list[tuple[int, int]]:
    return [d for i, j in g.simple_edges for d in ((i, j), (j, i))]


def probe(t: Tracer, result: dict) -> None:
    """Calls and counts made after an op, outside its timed region: the
    graph layer is probed on the op's graph, so it shows on every workload,
    and the response stack is scanned at no cost to the op."""
    g = result["graph"]
    t.call("graph.is_connected", is_connected, g)
    tree = t.call("graph.spanning_tree", spanning_tree, g)
    cycles = t.call("graph.fundamental_cycles", fundamental_cycles, g, tree)
    edges = len(g.simple_edges)
    t.count("graph.n", g.n)
    t.count("graph.edges", edges)
    t.count("graph.chords", len(cycles))
    t.count("graph.cycle_steps", sum(len(fc.cycle) - 1 for fc in cycles))
    t.count("exchange.dense_bytes", g.n * g.n * 8)
    t.count("exchange.edge_entry_share", 2 * edges / (g.n * g.n))
    if "out" in result:
        t.count("io.rows_written", result["rows"])
    response = getattr(result.get("operator"), "response", None)  # the dense stack, while it exists
    if response is not None:
        t.count("dynamics.response_bytes", response.nbytes)
        t.count("dynamics.response_nonzero_share", np.count_nonzero(response) / max(response.size, 1))


# --- reduction of CLI reports to the same dicts ------------------------------


def from_report(command: str, exit_code: int, report: dict) -> dict:
    data, metrics = report["data"], report["metrics"]
    out: dict = {"exit": exit_code, "verdict": report["verdict"]}
    if command == "check":
        w = report["witness"]
        out["cycles_checked"] = metrics["cycles_checked"]
        out["max_abs_log_gain"] = metrics["max_abs_log_gain"]
        out["witness"] = None if w is None else (w["cycle"], w["log_gain"])
    elif command == "price":
        out["prices"] = data["prices_log"]
    elif command == "basis":
        out["entries"] = data["entries"]
    elif command == "complete":
        out["rows"] = data["rows"]
        out["out"] = Path(data["out"])
    else:  # perturb
        out["rates"] = [(int(s), int(d), r) for s, d, r in data["rates"]]
    return out


# --- checks against the reference --------------------------------------------


def _far(got: float, want: float) -> bool:
    return not abs(got - want) <= TOL  # NaN counts as far


def _expect_rates(rows, want: dict[tuple[int, int], float], what: str) -> str | None:
    if len(rows) != len(want):
        return f"{what}: {len(rows)} rates, expected {len(want)}"
    seen = set()
    for i, j, rate in rows:
        key = (i, j)
        if key not in want or key in seen:
            return f"{what}: unexpected or repeated quote {key}"
        seen.add(key)
        if not rate > 0.0 or _far(math.log(rate), want[key]):
            return f"{what}: quote {key} = {rate!r}, expected log {want[key]!r}"
    return None


def _read_rates_csv(path: Path) -> list[tuple[int, int, float]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return [(int(s), int(d), float(r)) for s, d, r in rows[1:]]


def expect_check(ref: Reference, bad: bool) -> Callable[[dict], str | None]:
    def expect(r: dict) -> str | None:
        if (r["exit"], r["verdict"]) != ((2, "violation") if bad else (0, "ok")):
            return f"exit code {r['exit']}, verdict {r['verdict']}"
        if r["cycles_checked"] != ref.conditions:
            return f"{r['cycles_checked']} conditions checked, expected {ref.conditions}"
        if not bad:
            if r["witness"] is not None or not r["max_abs_log_gain"] <= TOL:
                return "violation reported on consistent rates"
            return None
        cycle, gain = r["witness"]
        a, b = ref.planted
        steps = set(zip(cycle, cycle[1:]))
        if (a, b) not in steps and (b, a) not in steps:
            return f"witness {cycle} misses the planted pair {ref.planted}"
        if _far(abs(gain), ref.planted_gain):
            return f"witness log gain {gain!r}, expected +-{ref.planted_gain!r}"
        return None

    return expect


def _expect_ok(r: dict) -> str | None:
    if (r["exit"], r["verdict"]) != (0, "ok"):
        return f"exit code {r['exit']}, verdict {r['verdict']}"
    return None


def expect_prices(ref: Reference) -> Callable[[dict], str | None]:
    def expect(r: dict) -> str | None:
        problem = _expect_ok(r)
        if problem or len(r["prices"]) != len(ref.prices):
            return problem or f"{len(r['prices'])} prices, expected {len(ref.prices)}"
        for k, (got, want) in enumerate(zip(r["prices"], ref.prices), 1):
            if _far(got, want):
                return f"price of {k} = {got!r}, expected {want!r}"
        return None

    return expect


def expect_basis(ref: Reference, n: int) -> Callable[[dict], str | None]:
    edges = {(min(i, j), max(i, j)) for i, j in ref.rates}

    def expect(r: dict) -> str | None:
        problem = _expect_ok(r)
        if problem or len(r["entries"]) != n - 1:
            return problem or f"{len(r['entries'])} basis entries, expected {n - 1}"
        root = list(range(n + 1))  # union-find: n - 1 edges without a cycle span the graph

        def find(v: int) -> int:
            while root[v] != v:
                root[v] = root[root[v]]
                v = root[v]
            return v

        for i, j in r["entries"]:
            if (min(i, j), max(i, j)) not in edges:
                return f"basis entry {(i, j)} is not an edge"
            a, b = find(i), find(j)
            if a == b:
                return f"basis entry {(i, j)} closes a cycle"
            root[a] = b
        return None

    return expect


def expect_completion(ref: Reference) -> Callable[[dict], str | None]:
    def expect(r: dict) -> str | None:
        problem = _expect_ok(r)
        if problem or r["rows"] != len(ref.rates):
            return problem or f"{r['rows']} rows reported, expected {len(ref.rates)}"
        return _expect_rates(_read_rates_csv(r["out"]), ref.rates, "completed file")

    return expect


def expect_perturbed(want: dict[tuple[int, int], float], what: str) -> Callable[[dict], str | None]:
    def expect(r: dict) -> str | None:
        return _expect_ok(r) or _expect_rates(r["rates"], want, what)

    return expect


# --- the mixes -----------------------------------------------------------------


def make_ops(inp: Inputs, workdir: Path) -> list[Op]:
    """One round of a workload's op mix, in order."""
    ref, f, n = inp.reference, inp.files, inp.market.n
    quotes = len(ref.rates)
    js = ("--format", "json")

    if inp.workload == "dense_check":
        ok, bad = f["rates_ok"], f["rates_bad"]
        return [
            Op("check_ok", "check", ("check", "--rates", str(ok), *js),
               lambda t: _lib_check(t, ok), expect_check(ref, bad=False), quotes),
            Op("check_bad", "check", ("check", "--rates", str(bad), *js),
               lambda t: _lib_check(t, bad), expect_check(ref, bad=True), quotes),
            Op("price", "price", ("price", "--rates", str(ok), "--ref", "1", *js),
               lambda t: _lib_price(t, ok), expect_prices(ref), quotes),
        ]

    if inp.workload == "sparse_pipeline":
        graph, basis = f["graph"], f["basis"]
        # each side checks and prices the file its own `complete` wrote
        cli_out, lib_out = workdir / "completed_cli.csv", workdir / "completed_lib.csv"
        return [
            Op("basis", "basis", ("basis", "--graph", str(graph), *js),
               lambda t: _lib_basis(t, graph), expect_basis(ref, n), quotes),
            Op("complete", "complete",
               ("complete", "--graph", str(graph), "--basis", str(basis), "--out", str(cli_out), *js),
               lambda t: _lib_complete(t, graph, basis, lib_out), expect_completion(ref), quotes),
            Op("check", "check", ("check", "--rates", str(cli_out), *js),
               lambda t: _lib_check(t, lib_out), expect_check(ref, bad=False), quotes),
            Op("price", "price", ("price", "--rates", str(cli_out), "--ref", "1", *js),
               lambda t: _lib_price(t, lib_out), expect_prices(ref), quotes),
        ]

    rates, delta = f["rates"], f["delta"]
    return [
        Op("perturb_exact", "perturb_exact",
           ("perturb", "--rates", str(rates), "--delta", str(delta), "--exact", *js),
           lambda t: _lib_perturb(t, rates, delta, exact=True),
           expect_perturbed(ref.exact, "exact perturbation"), quotes),
        Op("perturb_first_order", "perturb_first_order",
           ("perturb", "--rates", str(rates), "--delta", str(delta), *js),
           lambda t: _lib_perturb(t, rates, delta, exact=False),
           expect_perturbed(ref.first_order, "first-order perturbation"), quotes),
    ]
