"""Command-line interface.

Exit codes: 0 consistent / success, 1 usage, parse, or structural error,
2 arbitrage violation.

Importing this module sets ``OPENBLAS_NUM_THREADS=1`` unless it is already
set, before numpy loads; ``import arbx`` does not load numpy, so this holds
for ``python -m arbx.cli``, the ``arbx`` script and ``from arbx.cli import
main`` alike.
"""

from __future__ import annotations

import os

# arbx makes no BLAS call, and an idle OpenBLAS worker spin-waits after numpy
# loads: on 2 vCPUs that can cost a short CLI run ~70 ms. A value set by the
# user is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import sys
import time
from typing import Callable

import numpy as np

from .basis import canonical_basis, complete, dimension, price_vector
from .dynamics import (
    _first_order_delta,
    apply_exact,
    build_operator,
    propagate_log,
)
from .errors import ArbxError
from .exchange import (
    DEFAULT_TOL,
    CheckResult,
    _exp_or_inf,
    check_no_arbitrage,
    check_no_arbitrage_oracle,
    exp_of,
    log_of,
)
from .graph import ORACLE_MAX_VERTICES, MarketGraph, generate_graph
from .io import (
    RunReport,
    file_digest,
    load_basis,
    load_graph,
    load_perturbation,
    load_rates,
    rate_rows,
    save_graph,
    save_rates,
)

_EXIT = {"ok": 0, "violation": 2, "error": 1}


def _ms(t0: float) -> float:
    return (time.perf_counter() - t0) * 1000.0


def _index_labels(g: MarketGraph) -> tuple[str, ...]:
    return tuple(str(i) for i in range(1, g.n + 1))


def _check_report(command: str, result: CheckResult, rates_path: str, labels, filled, t0) -> RunReport:
    return RunReport(
        command=command,
        verdict="ok" if result.ok else "violation",
        witness=result.witness,
        metrics={
            "cycles_checked": result.cycles_checked,
            "max_abs_log_gain": result.max_abs_log_gain,
            "elapsed_ms": _ms(t0),
        },
        inputs={"rates": file_digest(rates_path)},
        labels=labels,
        data={"filled_reciprocals": [list(p) for p in filled]},
    )


def cmd_check(args: argparse.Namespace) -> RunReport:
    t0 = time.perf_counter()
    rates = load_rates(args.rates, tol=args.tol)
    result = check_no_arbitrage(log_of(rates.matrix), tol=args.tol)
    return _check_report("check", result, args.rates, rates.labels, rates.filled, t0)


def cmd_oracle(args: argparse.Namespace) -> RunReport:
    t0 = time.perf_counter()
    rates = load_rates(args.rates, tol=args.tol)
    result = check_no_arbitrage_oracle(log_of(rates.matrix), tol=args.tol, max_n=args.max_n)
    return _check_report("oracle", result, args.rates, rates.labels, rates.filled, t0)


def cmd_complete(args: argparse.Namespace) -> RunReport:
    t0 = time.perf_counter()
    g = load_graph(args.graph)
    assignment = load_basis(args.basis, g, multiplicative=args.multiplicative)
    rates = exp_of(complete(assignment))
    save_rates(args.out, rates)
    return RunReport(
        command="complete",
        verdict="ok",
        witness=None,
        metrics={"dimension": dimension(g), "elapsed_ms": _ms(t0)},
        inputs={"graph": file_digest(args.graph), "basis": file_digest(args.basis)},
        labels=_index_labels(g),
        data={"out": str(args.out), "rows": g._edge_count},
    )


def cmd_basis(args: argparse.Namespace) -> RunReport:
    t0 = time.perf_counter()
    g = load_graph(args.graph)
    spec = canonical_basis(g)
    return RunReport(
        command="basis",
        verdict="ok",
        witness=None,
        metrics={"dimension": spec.size, "elapsed_ms": _ms(t0)},
        inputs={"graph": file_digest(args.graph)},
        labels=_index_labels(g),
        data={"entries": [list(e) for e in spec.entries]},
    )


def cmd_dim(args: argparse.Namespace) -> RunReport:
    t0 = time.perf_counter()
    g = load_graph(args.graph)
    dim = dimension(g)
    return RunReport(
        command="dim",
        verdict="ok",
        witness=None,
        metrics={"dimension": dim, "elapsed_ms": _ms(t0)},
        inputs={"graph": file_digest(args.graph)},
        labels=_index_labels(g),
        data={"dimension": dim},
    )


def cmd_price(args: argparse.Namespace) -> RunReport:
    t0 = time.perf_counter()
    rates = load_rates(args.rates, tol=args.tol)
    ref = rates.index_of(args.ref)
    prices = price_vector(log_of(rates.matrix), ref, tol=args.tol)
    return RunReport(
        command="price",
        verdict="ok",
        witness=None,
        metrics={"elapsed_ms": _ms(t0)},
        inputs={"rates": file_digest(args.rates)},
        labels=rates.labels,
        data={
            "reference": args.ref,
            "prices_log": [p for p in prices.prices],
            # inf past the float range, written as null in JSON
            "prices_multiplicative": [_exp_or_inf(p) for p in prices.prices],
        },
    )


def cmd_perturb(args: argparse.Namespace) -> RunReport:
    t0 = time.perf_counter()
    rates = load_rates(args.rates, tol=args.tol)
    state = log_of(rates.matrix)
    pert = load_perturbation(args.delta, rates.matrix.graph)
    d_log = propagate_log(build_operator(pert.spec), pert)
    if args.exact:
        _, updated_rates = apply_exact(state, d_log, tol=args.tol)
        updated = updated_rates.values
        mode = "exact"
    else:
        # the first-order update, rate + rate * delta, per directed edge
        with np.errstate(over="ignore"):  # reported below, not as a warning
            updated = rates.matrix.values + _first_order_delta(rates.matrix, d_log)
        if not np.all(np.isfinite(updated)):
            raise OverflowError("first-order rate update exceeds the float range")
        mode = "first-order"
    return RunReport(
        command="perturb",
        verdict="ok",
        witness=None,
        metrics={
            "basis_size": pert.spec.size,
            "max_abs_log_delta": float(np.max(np.abs(d_log.values), initial=0.0)),
            "elapsed_ms": _ms(t0),
        },
        inputs={"rates": file_digest(args.rates), "delta": file_digest(args.delta)},
        labels=rates.labels,
        data={"mode": mode, "rates": rate_rows(updated, rates.matrix.graph, rates.labels)},
    )


def cmd_gen(args: argparse.Namespace) -> RunReport:
    t0 = time.perf_counter()
    g = generate_graph(args.kind, args.n, p=args.p, m=args.m, seed=args.seed)
    save_graph(args.out, g)
    return RunReport(
        command="gen",
        verdict="ok",
        witness=None,
        metrics={"edge_count": len(g.edges), "elapsed_ms": _ms(t0)},
        inputs={},
        labels=_index_labels(g),
        data={"out": str(args.out), "kind": args.kind, "n": g.n, "seed": args.seed},
    )


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2 (2 means violation here)
    def error(self, message: str):  # type: ignore[override]
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _add_command(
    sub, name: str, func: Callable[[argparse.Namespace], RunReport], help_text: str
) -> argparse.ArgumentParser:
    p = sub.add_parser(name, help=help_text)
    p.add_argument("--format", choices=("text", "json"), default="text", help="report format")
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="arbx", description="No-arbitrage exchange-rate toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = _add_command(sub, "check", cmd_check, "verify a rates file is arbitrage-free")
    p.add_argument("--rates", required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)

    p = _add_command(sub, "complete", cmd_complete, "fill a full rate matrix from a basis")
    p.add_argument("--graph", required=True)
    p.add_argument("--basis", required=True)
    p.add_argument("--multiplicative", action="store_true", help="basis values are rates, not logs")
    p.add_argument("--out", required=True)

    p = _add_command(sub, "basis", cmd_basis, "print the canonical basis of a graph")
    p.add_argument("--graph", required=True)

    p = _add_command(sub, "dim", cmd_dim, "print the dimension of the consistent space")
    p.add_argument("--graph", required=True)

    p = _add_command(sub, "price", cmd_price, "print the price potential of consistent rates")
    p.add_argument("--rates", required=True)
    p.add_argument("--ref", required=True, help="label of the reference good (price 0)")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)

    p = _add_command(sub, "perturb", cmd_perturb, "propagate basis-rate perturbations")
    p.add_argument("--rates", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--exact", action="store_true", help="exact update instead of first order")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)

    p = _add_command(sub, "gen", cmd_gen, "generate a seeded connected test graph")
    p.add_argument("--kind", required=True, choices=("complete", "tree", "gnp", "pa"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, default=None, help="edge probability (gnp)")
    p.add_argument("--m", type=int, default=None, help="edges per new vertex (pa)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = _add_command(sub, "oracle", cmd_oracle, "brute-force check over every simple cycle")
    p.add_argument("--rates", required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--max-n", type=int, default=ORACLE_MAX_VERTICES, dest="max_n")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    fmt = getattr(args, "format", "text")
    try:
        report = args.func(args)
    except (ArbxError, OverflowError, OSError, MemoryError) as exc:
        report = RunReport(
            command=args.command,
            verdict="error",
            witness=None,
            metrics={},
            inputs={},
            labels=(),
            # MemoryError() carries no text; the type name stands in for it
            data={"error": type(exc).__name__, "message": str(exc) or type(exc).__name__},
        )
    print(report.to_json() if fmt == "json" else report.to_text())
    return _EXIT[report.verdict]


if __name__ == "__main__":
    raise SystemExit(main())
