"""The brute-force oracle against its recursive, per-call reference, and
cycle walks longer than the recursion limit.

The oracle reads each cycle's steps from one table of the edge values and
walks the cycles on an explicit stack; the reference calls
``cycle_log_gain`` once per cycle of a recursive walk. Their results must be
equal bit for bit, witness included, and the same errors must be raised.
A graph with more chords than K8 is refused before any cycle is walked.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import arbx
from arbx import LogRateMatrix, check_no_arbitrage_oracle, enumerate_simple_cycles
from arbx.cli import main
from arbx.errors import ArbxError, OracleSizeError
from arbx.graph import new_graph
from helpers import reference_oracle, reference_simple_cycles

TOLS = (1e-12, 1e-9, 1.0)
# values that keep a cycle's gain 0 or far from it, signed zeros, and values
# whose sums leave the float range
WILD = (0.0, -0.0, 1e308, -1e308, 1e-300, -1e-300, 0.5, -0.5, 1e-9, -1e-9)


def oracle_instance(seed):
    """A seeded log matrix on 1 to 8 goods, maybe disconnected, maybe with
    loops, and one tolerance of TOLS; seven and eight goods have at most
    half of their pairs as edges."""
    rng = random.Random(seed)
    n = rng.randint(1, 8)
    density = rng.uniform(0.0, 1.0 if n < 7 else 0.5)  # K8 alone has 8,018 cycles
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]
    g = new_graph(n, [p for p in pairs if (p[0] == p[1] and rng.random() < 0.1) or rng.random() < density])
    prices = [rng.uniform(-3.0, 3.0) for _ in range(n + 1)]
    mode = rng.choice(("consistent", "skewed", "wild"))
    values = {}
    for i, j in _directed(g):
        if mode == "wild":
            values[i, j] = rng.choice(WILD)
        elif i == j:
            values[i, j] = rng.choice((0.0, -0.0)) if mode == "consistent" else rng.choice((0.0, 1e-10, -2.0))
        else:
            values[i, j] = prices[j] - prices[i]
            if mode == "skewed" and rng.random() < 0.3:
                values[i, j] += rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-13.0, 0.5)
    return LogRateMatrix.from_values(g, values), rng.choice(TOLS)


def _directed(g):
    for i, j in g.simple_edges:
        yield i, j
        yield j, i
    for v in g.loops:
        yield v, v


def outcome(check, e, tol):
    """Every field of ``check(e, tol)``, floats by their repr; or the type
    and message of the error it raised."""
    try:
        r = check(e, tol)
    except ArbxError as exc:
        return type(exc).__name__, str(exc)
    w = r.witness
    witness = w and (w.cycle, repr(w.log_gain), repr(w.multiplicative_gain))
    return r.ok, r.cycles_checked, repr(r.max_abs_log_gain), witness


@pytest.mark.parametrize("block", range(4))
def test_equals_reference_bit_for_bit(block):
    seen = set()
    for seed in range(block * 250, (block + 1) * 250):
        e, tol = oracle_instance(seed)
        got = outcome(check_no_arbitrage_oracle, e, tol)
        assert got == outcome(reference_oracle, e, tol), seed
        seen.add(got[0])
    # the block holds consistent, violating and disconnected instances
    assert {True, False, "NotConnectedError"} <= seen


def test_equals_reference_on_overflowing_cycles():
    # every directed step 1e308: each triangle and square gains +inf
    g = new_graph(4, [(i, j) for i in range(1, 5) for j in range(i + 1, 5)] + [(2, 2)])
    e = LogRateMatrix.from_values(g, {step: 1e308 for step in _directed(g)})
    for tol in TOLS:
        got = outcome(check_no_arbitrage_oracle, e, tol)
        assert got == outcome(reference_oracle, e, tol)
        assert got[2] == "inf" and got[3][1] == "inf"


@pytest.mark.parametrize("seed", range(40))
def test_cycles_equal_the_recursive_walk(seed):
    e, _ = oracle_instance(seed)
    for max_len in (None, 0, 1, 3, 5):
        assert enumerate_simple_cycles(e.graph, max_len) == reference_simple_cycles(e.graph, max_len), seed


def test_cycle_longer_than_the_recursion_limit():
    ring = new_graph(3000, [(v, v % 3000 + 1) for v in range(1, 3001)])
    assert enumerate_simple_cycles(ring, max_n=3000) == [(*range(1, 3001), 1)]


def test_more_chords_than_k8_are_refused_before_the_walk():
    # K8 has 21 chords; a ninth good hung on one of its goods adds none,
    # hung on two it adds a 22nd
    k8 = [(i, j) for i in range(1, 9) for j in range(i + 1, 9)]
    assert check_no_arbitrage_oracle(LogRateMatrix.from_values(new_graph(9, k8 + [(1, 9)]), {}), max_n=9).ok
    with pytest.raises(OracleSizeError, match="22 chords exceeds the oracle limit of 21"):
        check_no_arbitrage_oracle(LogRateMatrix.from_values(new_graph(9, k8 + [(1, 9), (2, 9)]), {}), max_n=9)


def test_cli_oracle_on_k12_ends_in_a_size_report(tmp_path, capsys):
    # K12 has 59,740,609 simple cycles: the run must end at once in a report
    graph, basis, rates = (tmp_path / name for name in ("k12.json", "basis.json", "k12.csv"))
    main(["gen", "--kind", "complete", "--n", "12", "--seed", "1", "--out", str(graph)])
    capsys.readouterr()
    main(["basis", "--graph", str(graph), "--format", "json"])
    entries = json.loads(capsys.readouterr().out)["data"]["entries"]
    basis.write_text(json.dumps({"entries": entries, "values": [0.01 * k for k in range(len(entries))]}))
    assert main(["complete", "--graph", str(graph), "--basis", str(basis), "--out", str(rates)]) == 0
    src = str(Path(arbx.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "arbx.cli", "oracle", "--rates", str(rates), "--max-n", "12", "--format", "json"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1 and proc.stderr == ""
    assert json.loads(proc.stdout)["data"] == {
        "error": "OracleSizeError",
        "message": "55 chords exceeds the oracle limit of 21, the chords of K8",
    }
