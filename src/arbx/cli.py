"""Command-line interface.

Exit codes: 0 consistent / success, 1 usage, parse, or structural error,
2 arbitrage violation.

Importing this module sets ``OPENBLAS_NUM_THREADS=1`` unless it is already
set, before numpy loads; ``import arbx`` does not load numpy, so this holds
for ``python -m arbx.cli``, the ``arbx`` script and ``from arbx.cli import
main`` alike.

:func:`run` is the program entry of ``python -m arbx.cli`` and the ``arbx``
script; :func:`main` runs one command and changes no process-wide state, so
tests and library callers may call it in process. A ``cmd_*`` function
returns its command's report: verdict, witness, labels, data, its own
metrics and the digests of the files it read. :func:`main` times the call
and adds it to the metrics as ``elapsed_ms``.
"""

from __future__ import annotations

import os

# arbx makes no BLAS call, and an idle OpenBLAS worker spin-waits after numpy
# loads: on 2 vCPUs that can cost a short CLI run ~70 ms. A value set by the
# user is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import gc
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
    require_tol,
)
from .graph import ORACLE_MAX_VERTICES, MarketGraph, generate_graph
from .io import (
    RatesFile,
    RunReport,
    _basis_of,
    _digest,
    _graph_of,
    _perturbation_of,
    _rates_of,
    _read_bytes,
    rate_rows,
    save_graph,
    save_rates,
)

_EXIT = {"ok": 0, "violation": 2, "error": 1}


def _index_labels(g: MarketGraph) -> tuple[str, ...]:
    return tuple(str(i) for i in range(1, g.n + 1))


def _load(args: argparse.Namespace, key: str, parse: Callable, *extra):
    """``parse(path, data, *extra)`` of the input file ``args.<key>``, read
    once: the report's ``inputs[key]`` records the digest of the bytes parsed."""
    path = getattr(args, key)
    data = _read_bytes(path)
    vars(args).setdefault("_inputs", {})[key] = _digest(data)
    return parse(path, data, *extra)


def _report(args, labels, data: dict, verdict="ok", witness=None, **metrics) -> RunReport:
    """The report of the command ``args`` ran, with the files it read;
    :func:`main` adds the run's ``elapsed_ms``."""
    inputs = vars(args).get("_inputs", {})
    return RunReport(args.command, verdict, witness, metrics, inputs, labels, data)


def _rates(args: argparse.Namespace) -> RatesFile:
    # the tolerance is checked before the file is read, as by load_rates
    require_tol(args.tol)
    return _load(args, "rates", _rates_of, args.tol)


def _check(args: argparse.Namespace, check: Callable[..., CheckResult], **options) -> RunReport:
    rates = _rates(args)
    result = check(log_of(rates.matrix), tol=args.tol, **options)
    return _report(
        args, rates.labels, {"filled_reciprocals": [list(p) for p in rates.filled]},
        "ok" if result.ok else "violation", result.witness,
        cycles_checked=result.cycles_checked, max_abs_log_gain=result.max_abs_log_gain,
    )


def cmd_check(args: argparse.Namespace) -> RunReport:
    return _check(args, check_no_arbitrage)


def cmd_oracle(args: argparse.Namespace) -> RunReport:
    return _check(args, check_no_arbitrage_oracle, max_n=args.max_n)


def cmd_complete(args: argparse.Namespace) -> RunReport:
    g = _load(args, "graph", _graph_of)
    assignment = _load(args, "basis", _basis_of, g, args.multiplicative)
    save_rates(args.out, exp_of(complete(assignment)))
    data = {"out": str(args.out), "rows": g._edge_count}
    return _report(args, _index_labels(g), data, dimension=dimension(g))


def cmd_basis(args: argparse.Namespace) -> RunReport:
    g = _load(args, "graph", _graph_of)
    spec = canonical_basis(g)
    data = {"entries": [list(e) for e in spec.entries]}
    return _report(args, _index_labels(g), data, dimension=spec.size)


def cmd_dim(args: argparse.Namespace) -> RunReport:
    g = _load(args, "graph", _graph_of)
    dim = dimension(g)
    return _report(args, _index_labels(g), {"dimension": dim}, dimension=dim)


def cmd_price(args: argparse.Namespace) -> RunReport:
    rates = _rates(args)
    ref = rates.index_of(args.ref)
    prices = price_vector(log_of(rates.matrix), ref, tol=args.tol).prices
    data = {"reference": args.ref, "prices_log": list(prices)}
    # inf past the float range, written as null in JSON
    data["prices_multiplicative"] = [_exp_or_inf(p) for p in prices]
    return _report(args, rates.labels, data)


def cmd_perturb(args: argparse.Namespace) -> RunReport:
    rates = _rates(args)
    pert = _load(args, "delta", _perturbation_of, rates.matrix.graph)
    d_log = propagate_log(build_operator(pert.spec), pert)
    if args.exact:
        updated = apply_exact(log_of(rates.matrix), d_log, tol=args.tol)[1].values
    else:
        # the first-order update, rate + rate * delta, per directed edge
        with np.errstate(over="ignore"):  # reported below, not as a warning
            updated = rates.matrix.values + _first_order_delta(rates.matrix, d_log)
        if not np.all(np.isfinite(updated)):
            raise OverflowError("first-order rate update exceeds the float range")
    max_abs = float(np.max(np.abs(d_log.values), initial=0.0))
    rows = rate_rows(updated, rates.matrix.graph, rates.labels)
    data = {"mode": "exact" if args.exact else "first-order", "rates": rows}
    return _report(args, rates.labels, data, basis_size=pert.spec.size, max_abs_log_delta=max_abs)


def cmd_gen(args: argparse.Namespace) -> RunReport:
    g = generate_graph(args.kind, args.n, p=args.p, m=args.m, seed=args.seed)
    save_graph(args.out, g)
    data = {"out": str(args.out), "kind": args.kind, "n": g.n, "seed": args.seed}
    return _report(args, _index_labels(g), data, edge_count=g._lo.size + g._loop_array.size)


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2 (2 means violation here)
    def error(self, message: str):  # type: ignore[override]
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="arbx", description="No-arbitrage exchange-rate toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name: str, func, help_text: str, *inputs: str) -> argparse.ArgumentParser:
        # the subcommand, with --format and a required path option per input
        # file: the file of --<key> is the report's inputs[key]
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("text", "json"), default="text", help="report format")
        for key in inputs:
            p.add_argument(f"--{key}", required=True)
        p.set_defaults(func=func)
        return p

    p = add("check", cmd_check, "verify a rates file is arbitrage-free", "rates")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)

    p = add("complete", cmd_complete, "fill a full rate matrix from a basis", "graph", "basis")
    p.add_argument("--multiplicative", action="store_true", help="basis values are rates, not logs")
    p.add_argument("--out", required=True)

    add("basis", cmd_basis, "print the canonical basis of a graph", "graph")
    add("dim", cmd_dim, "print the dimension of the consistent space", "graph")

    p = add("price", cmd_price, "print the price potential of consistent rates", "rates")
    p.add_argument("--ref", required=True, help="label of the reference good (price 0)")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)

    p = add("perturb", cmd_perturb, "propagate basis-rate perturbations", "rates", "delta")
    p.add_argument("--exact", action="store_true", help="exact update instead of first order")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)

    p = add("gen", cmd_gen, "generate a seeded connected test graph")
    p.add_argument("--kind", required=True, choices=("complete", "tree", "gnp", "pa"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, default=None, help="edge probability (gnp)")
    p.add_argument("--m", type=int, default=None, help="edges per new vertex (pa)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = add("oracle", cmd_oracle, "brute-force check over every simple cycle", "rates")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--max-n", type=int, default=ORACLE_MAX_VERTICES, dest="max_n")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        report = args.func(args)
        report.metrics["elapsed_ms"] = (time.perf_counter() - t0) * 1000.0
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
    print(report.to_json() if args.format == "json" else report.to_text())
    return _EXIT[report.verdict]


def run() -> None:
    """Run the command line and exit with its code.

    The objects made by the imports live until the exit, so they are moved
    out of the collector's reach first: otherwise every full collection of
    the run, and the one at exit, walks numpy's and arbx's import heap.
    """
    gc.freeze()
    raise SystemExit(main())


if __name__ == "__main__":
    run()
