"""Run the arbx benchmark: one workload, or all of them in turn.

    python3 bench/run.py --workload all --seed 1
    python3 bench/run.py --workload dense_check --seed 1 --seconds 30 --trace 0

One client in a closed loop: each op of the workload's mix runs as an arbx
CLI child (the next starts only after it has exited) and then in-process
through the public API, for as many whole rounds as --seconds buys at the
nominal round time. Every result is checked against the benchmark's own
reference. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics, or with ``--trace 1`` the per-layer
ones). See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
from spawner import CHILD_TIMEOUT_S

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / "_work"
WORKLOADS = ("dense_check", "sparse_pipeline", "perturb_exact")
COMMANDS = ("check", "price", "basis", "complete", "perturb_exact", "perturb_first_order")
GEN_REPEATS = 3
ROUND_S = {
    "full": {"dense_check": 6.4, "sparse_pipeline": 8.5, "perturb_exact": 3.3},
    "toy": {"dense_check": 0.9, "sparse_pipeline": 1.2, "perturb_exact": 0.5},
}
"""Nominal seconds per untraced round (2 vCPU, seed code): --seconds buys
round(seconds / ROUND_S) rounds."""
OVERRUN = 3.0
"""On a machine this many times slower than nominal, stop early instead."""
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# counts that must repeat exactly; values as measured at full size on the seed code
PINS = {
    "dense_check": ("exchange.cycles_checked", 62_001),
    "sparse_pipeline": ("io.rows_written", 29_988),
    "perturb_exact": ("dynamics.response_bytes", 215_280_000),
}

END_TO_END = {
    "setup_s": "s",
    "cli_wall_ref.p50": "ref",
    "cli_wall_ref.tail": "ref",
    "cli_peak_rss_mb": "MB",
    "lib_wall_ref.p50": "ref",
    "lib_wall_ref.tail": "ref",
    "quotes_per_ref": "1/ref",
}
"""Bounded metrics. Op times are in units of the reference kernel's median
time in the same run (see reference_kernel); the wall-clock ms behind them
are printed in the summary."""

PER_LAYER = {
    "cli.import.ms": "ms",
    **{f"cli.{c}.{m}": u for c in COMMANDS for m, u in (("ms", "ms"), ("rss_mb", "MB"))},
    "cli.overhead.ms": "ms",
    "cli.report_bytes": "B",
    **{f"io.{c}.ms": "ms" for c in ("load_rates", "save_rates", "load_graph", "load_basis",
                                     "load_perturbation", "file_digest")},
    "io.quote_rows": "count",
    "io.bytes_read": "B",
    "io.bytes_written": "B",
    "graph.is_connected.ms": "ms",
    "graph.spanning_tree.ms": "ms",
    "graph.fundamental_cycles.ms": "ms",
    "graph.n": "count",
    "graph.edges": "count",
    "graph.chords": "count",
    "graph.cycle_steps": "count",
    "exchange.log_of.ms": "ms",
    "exchange.exp_of.ms": "ms",
    "exchange.check_no_arbitrage.ms": "ms",
    "exchange.cycles_checked": "count",
    "exchange.dense_bytes": "B",
    "exchange.edge_entry_share": "ratio",
    "basis.canonical_basis.ms": "ms",
    "basis.complete.ms": "ms",
    "basis.price_vector.ms": "ms",
    "basis.dimension.ms": "ms",
    "dynamics.build_operator.ms": "ms",
    "dynamics.propagate_log.ms": "ms",
    "dynamics.apply_exact.ms": "ms",
    "dynamics.propagate_multiplicative_first_order.ms": "ms",
    "dynamics.response_bytes": "B",
    "dynamics.response_nonzero_share": "ratio",
    "bench.trace_overhead_pct": "%",
}


class SetupError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def import_arbx() -> float:
    """Import arbx from the checkout's src; returns the import time in s."""
    if not (SRC / "arbx" / "__init__.py").is_file():
        raise SetupError(f"no arbx package under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import arbx  # noqa: F401

    elapsed = time.perf_counter() - t0
    if not Path(arbx.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"arbx imported from {arbx.__file__}, not from {SRC}")
    return elapsed


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of interpreter and numpy work that does
    not involve arbx.

    The speed of this shared VM drifts by up to 30% within minutes, which is
    more than a wall-clock median over one run can absorb. Run before every
    op, the kernel measures the machine's speed at that moment, and op times
    divided by its median compare across runs.
    """
    t0 = time.perf_counter()
    table = {str(i): i * 0.5 for i in range(40_000)}
    sum(v for v in table.values() if v > 3.0)
    grid = np.exp(np.full((1200, 1200), 0.5))
    float(np.log(grid).sum())
    return time.perf_counter() - t0


@dataclass
class Child:
    exit_code: int
    wall_ms: float
    rss_mb: float
    stdout: bytes


class Spawner:
    """Runs CLI children through spawner.py, which says why they are not
    spawned from this process."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py"))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, args: list[str]) -> Child:
        """Run ``python args`` with arbx from the checkout, spawn to exit."""
        out_path, err_path = self.workdir / "child.out", self.workdir / "child.err"
        request = {"argv": [sys.executable, *args], "env": self.env,
                   "stdout": str(out_path), "stderr": str(err_path)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise SetupError(f"the spawner exited with code {self.proc.wait()}")
        r = json.loads(reply)
        return Child(r["exit"], r["wall_ms"], r["maxrss_kb"] / 1024.0, out_path.read_bytes())

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S + 10.0)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def cli_import_probe(spawner: Spawner) -> float:
    """Time of `import arbx.cli` in a fresh child, in ms; asserts where it came from."""
    code = (
        "import json, time; t0 = time.perf_counter(); import arbx.cli; "
        "print(json.dumps([(time.perf_counter() - t0) * 1000.0, arbx.cli.__file__]))"
    )
    child = spawner.run(["-c", code])
    if child.exit_code != 0:
        raise SetupError(f"arbx.cli does not import in a child (exit {child.exit_code})")
    ms, path = json.loads(child.stdout)
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"the CLI child imported arbx from {path}, not from {SRC}")
    return ms


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    cli_ms: list[float] = field(default_factory=list)
    cli_rss: list[float] = field(default_factory=list)
    by_command: dict[str, list[tuple[float, float]]] = field(default_factory=dict)  # (ms, MB)
    report_bytes: list[int] = field(default_factory=list)
    lib_ms: list[float] = field(default_factory=list)
    lib_quotes: int = 0
    overhead_ms: list[float] = field(default_factory=list)
    traced_ms: list[float] = field(default_factory=list)
    import_ms: list[float] = field(default_factory=list)
    ref_ms: list[float] = field(default_factory=list)

    def fail(self, op_name: str, side: str, problem: str) -> None:
        self.failed += 1
        self.problems.append(f"{op_name} ({side}): {problem}")


def run_cli(op, spawner: Spawner, tally: Tally) -> float:
    child = spawner.run(["-m", "arbx.cli", *op.argv])
    tally.attempted += 1
    tally.cli_ms.append(child.wall_ms)
    tally.cli_rss.append(child.rss_mb)
    tally.by_command.setdefault(op.command, []).append((child.wall_ms, child.rss_mb))
    tally.report_bytes.append(len(child.stdout))
    try:
        problem = op.check_report(child.exit_code, child.stdout)
    except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
        problem = f"exit code {child.exit_code}, unreadable report: {exc!r}"
    if problem:
        tally.fail(op.name, "cli", problem)
    return child.wall_ms


def run_lib(op, tracer, tally: Tally) -> tuple[float, dict | None]:
    """One in-process op: the clock runs from reading the files until arbx
    returns; the check against the reference comes after."""
    gc.collect()
    tracer.begin_op()
    tally.attempted += 1
    t0 = time.perf_counter()
    try:
        result = op.lib(tracer)
    except Exception as exc:  # an op that raises is a failed op, not a crashed run
        ms = (time.perf_counter() - t0) * 1000.0
        tally.fail(op.name, "lib", f"raised {exc!r}")
        return ms, None
    ms = (time.perf_counter() - t0) * 1000.0
    try:
        problem = op.expect(result)
    except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
        problem = f"unreadable result: {exc!r}"
    if problem:
        tally.fail(op.name, "lib", problem)
    return ms, result


def run_round(op_list, spawner: Spawner, tally: Tally, plain, traced) -> None:
    import ops as bench_ops

    if traced is not None:
        tally.import_ms.append(cli_import_probe(spawner))
    for op in op_list:
        tally.ref_ms.append(reference_kernel() * 1000.0)
        cli_ms = run_cli(op, spawner, tally)
        tally.ref_ms.append(reference_kernel() * 1000.0)
        lib_ms = run_lib(op, plain, tally)[0]  # keep no result alive into the next op
        tally.lib_ms.append(lib_ms)
        tally.lib_quotes += op.quotes
        tally.overhead_ms.append(cli_ms - lib_ms)
        if traced is not None:
            ms, result = run_lib(op, traced, tally)
            tally.traced_ms.append(ms)
            if result is not None:
                bench_ops.probe(traced, result)
            del result


def tail(values: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it: the value,
    the percentile and the number of samples beyond it. Below 11 samples no
    percentile qualifies, and the minimum is reported."""
    xs = sorted(values)
    k = max(len(xs) - 11, 0)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - 1 - k


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, scale: str = "full", mutate_reference=None
) -> dict:
    """Set up, measure and check one workload; returns the result object
    plus a ``notes`` list for the human-readable summary."""
    t_start = time.perf_counter()
    workdir = WORK / f"{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    spawner = None
    try:
        gen_s = []
        for _ in range(GEN_REPEATS):
            t0 = time.perf_counter()
            inp = inputs.build(workload, seed, scale, workdir)
            gen_s.append(time.perf_counter() - t0)
        import_s = import_arbx()
        import ops as bench_ops

        t_imported = time.perf_counter()

        if mutate_reference is not None:
            mutate_reference(inp.reference)
        spawner = Spawner(workdir)
        cli_import_probe(spawner)
        op_list = bench_ops.make_ops(inp, workdir)
        plain = bench_ops.Tracer(False)
        traced = bench_ops.Tracer(True) if trace else None

        # The benchmark's own inputs and references stay out of the
        # collector's way during in-process ops.
        gc.freeze()
        # Warm-up round: in-process only. A CLI child starts from nothing
        # each time; the import child above has already paged in its files.
        for op in op_list:
            run_lib(op, plain, Tally())
        # start to first timed op, counting one input generation (the median)
        setup_s = statistics.median(gen_s) + import_s + (time.perf_counter() - t_imported)

        # A fixed number of whole rounds, so that every run of a workload
        # pools the same op mix and the percentiles mean the same thing.
        planned = max(1, round(seconds / ROUND_S[scale][workload]))
        tally = Tally()
        t0 = time.perf_counter()
        rounds = 0
        while rounds < planned and time.perf_counter() - t0 < OVERRUN * seconds:
            run_round(op_list, spawner, tally, plain, traced)
            rounds += 1
        notes = [f"setup: {len(gen_s)} input generations (median {statistics.median(gen_s):.3f} s), "
                 f"import {import_s:.3f} s, in-process warm-up round; whole setup {t0 - t_start:.2f} s",
                 f"measured {rounds} of {planned} planned rounds of {len(op_list)} ops "
                 f"in {time.perf_counter() - t0:.1f} s"]

        pin_name, pin_value = PINS[workload]
        expected = {
            "exchange.cycles_checked": inp.reference.conditions,
            "io.rows_written": len(inp.reference.rates),
            "dynamics.response_bytes": (inp.market.n - 1) * inp.market.n ** 2 * 8,
        }[pin_name]
        if scale == "full" and expected != pin_value:
            tally.problems.append(f"{pin_name}: the inputs imply {expected}, pinned {pin_value}")
        if trace:
            seen = {op[pin_name] for op in traced.ops if pin_name in op}
            if len(seen) > 1:
                tally.problems.append(f"{pin_name} differs between ops: {sorted(seen)}")
            notes.append(f"pinned count {pin_name}: {sorted(seen)} (seed code: {pin_value} at full size)")
            metrics = per_layer(tally, traced)
        else:
            metrics = end_to_end(tally, setup_s, notes)
        return {
            "correct": not tally.problems,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": metrics,
            "notes": notes + tally.problems[:10],
        }
    finally:
        gc.unfreeze()
        if spawner is not None:
            spawner.close()
        shutil.rmtree(workdir, ignore_errors=True)


def end_to_end(tally: Tally, setup_s: float, notes: list[str]) -> dict:
    ref = statistics.median(tally.ref_ms)
    cli_tail, cli_pct, cli_beyond = tail(tally.cli_ms)
    lib_tail, lib_pct, lib_beyond = tail(tally.lib_ms)
    wall = {
        "cli_wall_ms.p50": statistics.median(tally.cli_ms),
        "cli_wall_ms.tail": cli_tail,
        "lib_wall_ms.p50": statistics.median(tally.lib_ms),
        "lib_wall_ms.tail": lib_tail,
    }
    quotes_per_s = tally.lib_quotes / (sum(tally.lib_ms) / 1000.0)
    notes.append(f"reference kernel: median {ref:.3f} ms over {len(tally.ref_ms)} runs, one before each op")
    notes += [f"{k} {v:.1f} ms" for k, v in wall.items()]
    notes.append(f"quotes_per_s {quotes_per_s:.1f} 1/s")
    notes.append(f"tails: cli p{cli_pct:.0f} of {len(tally.cli_ms)} samples ({cli_beyond} beyond), "
                 f"lib p{lib_pct:.0f} of {len(tally.lib_ms)} samples ({lib_beyond} beyond)")
    notes.append(f"fail_ratio {tally.failed / tally.attempted:g} ({tally.failed} of {tally.attempted} ops)")
    values = {
        "setup_s": setup_s,
        "cli_wall_ref.p50": wall["cli_wall_ms.p50"] / ref,
        "cli_wall_ref.tail": cli_tail / ref,
        "cli_peak_rss_mb": max(tally.cli_rss),
        "lib_wall_ref.p50": wall["lib_wall_ms.p50"] / ref,
        "lib_wall_ref.tail": lib_tail / ref,
        "quotes_per_ref": quotes_per_s * ref / 1000.0,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def per_layer(tally: Tally, traced) -> dict:
    """Medians per op; a call the workload's mix never makes reads 0."""
    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update({k: v for k, v in traced.medians().items() if k in PER_LAYER})
    values["cli.import.ms"] = statistics.median(tally.import_ms)
    for command, samples in tally.by_command.items():
        values[f"cli.{command}.ms"] = statistics.median(ms for ms, _ in samples)
        values[f"cli.{command}.rss_mb"] = statistics.median(mb for _, mb in samples)
    values["cli.overhead.ms"] = statistics.median(tally.overhead_ms)
    values["cli.report_bytes"] = statistics.median(tally.report_bytes)
    values["bench.trace_overhead_pct"] = 100.0 * (
        statistics.median(tally.traced_ms) / statistics.median(tally.lib_ms) - 1.0
    )
    return {k: {"value": v, "unit": PER_LAYER[k]} for k, v in values.items()}


def summary(workload: str, result: dict) -> list[str]:
    lines = [f"== {workload}: correct={result['correct']} attempted={result['attempted']} "
             f"failed={result['failed']}"]
    lines += [f"   {note}" for note in result["notes"]]
    lines += [f"   {name:<50} {m['value']:>16.6g} {m['unit']}" for name, m in result["metrics"].items()]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    blas = " ".join(f"{k}={os.environ.get(k, 'unset')}" for k in BLAS_ENV)
    print(f"python {sys.version.split()[0]}, numpy {np.__version__}, {os.cpu_count()} cpus, "
          f"BLAS threads at default ({blas})")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            print("\n".join(summary(name, results[name])), flush=True)
    except SetupError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 2
    if len(names) == 1:
        final = {k: v for k, v in results[names[0]].items() if k != "notes"}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": m for w, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
