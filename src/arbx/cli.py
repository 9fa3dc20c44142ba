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
returns its command's report: verdict, witness, labels (a named sheet's;
none where goods are named by index), data, its own metrics (with the size
of the market it read: ``n`` goods, ``edges`` and ``chords``) and the
digests of the files it read; it imports the basis and dynamics layers
itself if it calls them, so that a run loads only its own layers.
:func:`main` times the call and adds to the metrics ``elapsed_ms``, the
spans of the layers that ran (``parse_ms``, ``tree_ms``, ``check_ms``,
``write_ms``; see :mod:`arbx.spans`) and ``peak_rss_mb``, the process's own
peak resident set so far (``ru_maxrss``, or ``VmHWM`` where Linux shows it
and it is smaller), where the ``resource`` module exists.
"""

from __future__ import annotations

import os

# arbx makes no BLAS call, and an idle OpenBLAS worker spin-waits after numpy
# loads: on 2 vCPUs that can cost a short CLI run ~70 ms. A value set by the
# user is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import errno
import gc
import re
import sys
import time
from typing import Callable

try:
    import resource
except ImportError:  # not on Windows
    resource = None

import numpy as np

from .errors import ArbxError, BadParamsError
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
    _rate_rows,
    _Rows,
    _digest,
    _graph_of,
    _perturbation_of,
    _rates_of,
    _read_bytes,
    save_graph,
    save_rates,
)
from .spans import recording, span

_EXIT = {"ok": 0, "violation": 2, "error": 1}


def _load(args: argparse.Namespace, key: str, parse: Callable, *extra):
    """``parse(path, data, *extra)`` of the input file ``args.<key>``, read
    once: the report's ``inputs[key]`` records the digest of the bytes parsed.
    The bytes are handed to the parser in a list it empties, so that it can
    free them once parsed."""
    path = getattr(args, key)
    held = [_read_bytes(path)]
    vars(args).setdefault("_inputs", {})[key] = _digest(held[0])
    with span("parse_ms"):
        return parse(path, held, *extra)


def _sizes(g: MarketGraph) -> dict[str, int]:
    # the market's goods, edges other than loops, and chords of its spanning tree
    return {"n": g.n, "edges": g._lo.size, "chords": g._lo.size - g.n + 1}


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
    with span("check_ms"):
        result = check(log_of(rates.matrix), tol=args.tol, **options)
    filled = rates._filled_ends
    return _report(
        args, rates._names, {"filled_reciprocals": _Rows(filled, range(1, rates.matrix.n + 1), np.arange(filled[0].size))},
        "ok" if result.ok else "violation", result.witness, **_sizes(rates.matrix.graph),
        cycles_checked=result.cycles_checked, max_abs_log_gain=result.max_abs_log_gain,
    )


def cmd_check(args: argparse.Namespace) -> RunReport:
    return _check(args, check_no_arbitrage)


def cmd_oracle(args: argparse.Namespace) -> RunReport:
    return _check(args, check_no_arbitrage_oracle, max_n=args.max_n)


def cmd_complete(args: argparse.Namespace) -> RunReport:
    from .basis import complete
    g = _load(args, "graph", _graph_of)
    assignment = _load(args, "basis", _basis_of, g, args.multiplicative)
    rates, dim = exp_of(complete(assignment)), assignment.spec.size
    del assignment  # with its basis search, before the write's peak
    with span("write_ms"):
        save_rates(args.out, rates)
    data = {"out": str(args.out), "rows": g._edge_count}
    return _report(args, (), data, dimension=dim, **_sizes(g))


def cmd_basis(args: argparse.Namespace) -> RunReport:
    from .basis import canonical_basis
    g = _load(args, "graph", _graph_of)
    spec = canonical_basis(g)
    data = {"entries": _Rows(spec._pairs.T - 1, range(1, g.n + 1), np.arange(spec.size))}
    return _report(args, (), data, dimension=spec.size, **_sizes(g))


def cmd_dim(args: argparse.Namespace) -> RunReport:
    from .basis import dimension
    g = _load(args, "graph", _graph_of)
    dim = dimension(g)
    return _report(args, (), {"dimension": dim}, dimension=dim, **_sizes(g))


def cmd_price(args: argparse.Namespace) -> RunReport:
    from .basis import price_vector
    rates = _rates(args)
    ref = rates.index_of(args.ref)
    prices = price_vector(log_of(rates.matrix), ref, tol=args.tol).prices
    data = {"reference": args.ref, "prices_log": list(prices)}
    # inf past the float range, written as null in JSON
    data["prices_multiplicative"] = [_exp_or_inf(p) for p in prices]
    return _report(args, rates._names, data, **_sizes(rates.matrix.graph))


def cmd_perturb(args: argparse.Namespace) -> RunReport:
    from .dynamics import _first_order_delta, apply_exact, build_operator, propagate_log
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
    rows = _rate_rows(updated, rates.matrix.graph, rates.labels)
    # a log delta at or below -1 leaves the first-order rate non-positive
    if not args.exact and not np.all(updated > 0.0):
        k = rows.order[np.argmax(updated[rows.order] <= 0.0)]
        src, dst = (rates.labels[end[k]] for end in rows.columns[:2])
        raise BadParamsError(f"first-order rate {src}->{dst} is {updated[k].item()!r}, not positive; use --exact")
    data = {"mode": "exact" if args.exact else "first-order", "rates": rows}
    return _report(args, rates._names, data, basis_size=pert.spec.size, max_abs_log_delta=max_abs, **_sizes(rates.matrix.graph))


def cmd_gen(args: argparse.Namespace) -> RunReport:
    g = generate_graph(args.kind, args.n, p=args.p, m=args.m, seed=args.seed)
    with span("write_ms"):
        save_graph(args.out, g)
    data = {"out": str(args.out), "kind": args.kind, "n": g.n, "seed": args.seed}
    return _report(args, (), data, edge_count=g._lo.size + g._loop_array.size)


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1, not argparse's default 2 (2 means violation here)
    def error(self, message: str):  # type: ignore[override]
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)

    # argparse drops an OSError from writing the help; run() reports it
    def print_help(self, file=None) -> None:
        print(self.format_help(), end="", file=file or sys.stdout, flush=True)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="arbx", description="No-arbitrage exchange-rate toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name: str, func, help_text: str, *inputs: str) -> argparse.ArgumentParser:
        # the subcommand, with --format, a required path option per input
        # file (the file of --<key> is the report's inputs[key]) and, with a
        # rates sheet, the --tol that judges its reciprocal conflicts
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--format", choices=("text", "json"), default="text", help="report format")
        for key in inputs:
            p.add_argument(f"--{key}", required=True)
        if "rates" in inputs:
            p.add_argument("--tol", type=float, default=DEFAULT_TOL)
        p.set_defaults(func=func)
        return p

    add("check", cmd_check, "verify a rates file is arbitrage-free", "rates")

    p = add("complete", cmd_complete, "fill a full rate matrix from a basis", "graph", "basis")
    p.add_argument("--multiplicative", action="store_true", help="basis values are rates, not logs")
    p.add_argument("--out", required=True)

    add("basis", cmd_basis, "print the canonical basis of a graph", "graph")
    add("dim", cmd_dim, "print the dimension of the consistent space", "graph")

    p = add("price", cmd_price, "print the price potential of consistent rates", "rates")
    p.add_argument("--ref", required=True, help="label of the reference good (price 0)")

    p = add("perturb", cmd_perturb, "propagate basis-rate perturbations", "rates", "delta")
    p.add_argument("--exact", action="store_true", help="exact update instead of first order")

    p = add("gen", cmd_gen, "generate a seeded connected test graph")
    p.add_argument("--kind", required=True, choices=("complete", "tree", "gnp", "pa"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, default=None, help="edge probability (gnp)")
    p.add_argument("--m", type=int, default=None, help="edges per new vertex (pa)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)

    p = add("oracle", cmd_oracle, "brute-force check over every simple cycle", "rates")
    p.add_argument("--max-n", type=int, default=ORACLE_MAX_VERTICES, dest="max_n")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        with recording() as spans:
            report = args.func(args)
        report.metrics.update(spans, elapsed_ms=(time.perf_counter() - t0) * 1000.0, **_peak_rss(_status()))
    except (ArbxError, OverflowError, OSError, MemoryError) as exc:
        # MemoryError() carries no text; the type name stands in for it
        data = {"error": type(exc).__name__, "message": str(exc) or type(exc).__name__}
        report = RunReport(args.command, "error", None, {}, {}, (), data)  # no metrics, inputs or labels
    sys.stdout.writelines(report._chunks(args.format))
    sys.stdout.write("\n")
    return _EXIT[report.verdict]


def _peak_rss(status: str = "") -> dict[str, float]:
    """The process's own peak resident set in MiB: ``ru_maxrss``, or the
    ``VmHWM`` line of ``status`` (the text of /proc/self/status) where that
    is smaller. Linux carries ``ru_maxrss`` over an exec from the process
    that started this one; ``VmHWM`` is this process's alone. Nothing where
    the resource module is missing."""
    if resource is None:
        return {}
    # ru_maxrss counts KiB on Linux and the BSDs, bytes on macOS
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (2**20 if sys.platform == "darwin" else 2**10)
    if hwm := re.search(r"^VmHWM:\s*(\d+) kB$", status, re.M):
        peak = min(peak, int(hwm[1]) / 2**10)
    return {"peak_rss_mb": peak}


def _status() -> str:
    # the process's own status, where Linux shows it
    try:
        with open("/proc/self/status", encoding="ascii", errors="replace") as fh:
            return fh.read()
    except OSError:
        return ""


def run() -> None:
    """Run the command line and exit with its code.

    The objects made by the imports live until the exit, so they are moved
    out of the collector's reach first: otherwise every full collection of
    the run, and the one at exit, walks numpy's and arbx's import heap.
    An OSError past :func:`main`, which reports each command's own, comes from
    writing the report or the help, or from fd 1 closed, where no command runs:
    exit 1, quiet on a closed pipe, else one line.
    """
    gc.freeze()
    try:
        if sys.stdout is None:  # fd 1 closed: a file the command opened could take it
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        code = main()
        sys.stdout.flush()
    except OSError as exc:
        if sys.stdout is not None:  # for the interpreter's last flush
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):
            print(f"arbx: cannot write the report: {exc}", file=sys.stderr)
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    run()
