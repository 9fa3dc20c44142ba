"""The column rates loader against the per-quote reference.

``load_rates`` parses whole columns at once; on every input it must raise
what the reference raises, with the same message, or return the same labels,
fills, graph and matrix, bits included.
"""

import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from arbx import generate_graph
from arbx.errors import ArbxError
from arbx.io import load_rates
from helpers import reference_load_rates
from test_cli_fuzz import rates_csv

DATA = Path(__file__).parent / "data"


def _outcome(loader, path, tol):
    try:
        rates = loader(path, tol)
    except ArbxError as exc:
        return type(exc), str(exc)
    return rates


def assert_same(path, tol=1e-9):
    """Both loaders raise the same error, or return equal files; the
    column loader's outcome is returned."""
    got, want = _outcome(load_rates, path, tol), _outcome(reference_load_rates, path, tol)
    if isinstance(want, tuple) or isinstance(got, tuple):
        assert got == want
        return got
    assert got.labels == want.labels
    assert got.filled == want.filled
    assert got.matrix.graph == want.matrix.graph
    assert np.array_equal(got.matrix.entries, want.matrix.entries)
    return got


def _write(tmp_path, text):
    path = tmp_path / "r.csv"
    path.write_text(text)
    return path


def market_csv(seed, kind, n, one_sided=0.4, skews=4):
    """A consistent quote sheet from random potentials, with some reverse
    quotes left out (fills), some loops, up to ``skews`` skewed reverse quotes
    (conflicts or not, depending on the tolerance), shuffled rows and blank
    lines."""
    rng = random.Random(seed)
    g = generate_graph(kind, n, m=3, seed=seed) if kind == "pa" else generate_graph(kind, n, seed=seed)
    p = [rng.uniform(-3.0, 3.0) for _ in range(n + 1)]
    name = str if rng.random() < 0.5 else (lambda v: f"c{v}")  # c10 sorts before c2
    skewed = set(rng.sample(g.simple_edges, rng.randint(0, skews)))
    rows = []
    for i, j in g.simple_edges:
        there, back = math.exp(p[j] - p[i]), math.exp(p[i] - p[j])
        if (i, j) in skewed:
            back *= 1.0 + rng.choice((1e-12, 1e-10, 1e-8, 1e-6))
        sides = rng.choice(("there", "back")) if rng.random() < one_sided else "both"
        if sides != "back":
            rows.append(f"{name(i)},{name(j)},{there!r}")
        if sides != "there":
            rows.append(f"{name(j)},{name(i)},{back!r}")
    rows += [f"{name(v)},{name(v)},1.0" for v in range(1, n + 1) if rng.random() < 0.05]
    rng.shuffle(rows)
    for _ in range(rng.randint(0, 3)):
        rows.insert(rng.randint(0, len(rows)), rng.choice(("", " ", ",,", " , , ")))
    return "src,dst,rate\n" + "\n".join(rows) + "\n"


@pytest.mark.parametrize("path", sorted(DATA.iterdir()), ids=lambda p: p.name)
def test_data_corpus(path):
    assert_same(path)


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("kind, n", [("complete", 60), ("pa", 300)])
@pytest.mark.parametrize("tol", [1e-9, 1e-5])
def test_seeded_markets(tmp_path, seed, kind, n, tol):
    assert_same(_write(tmp_path, market_csv(seed, kind, n)), tol)


@pytest.mark.parametrize("seed", range(4))
def test_seeded_markets_with_a_planted_error(tmp_path, seed):
    # a repeated quote and a bad rate at random lines: the earlier one wins
    rng = random.Random(seed)
    lines = market_csv(seed, "complete", 60).splitlines()
    quotes = [k for k, line in enumerate(lines) if k and line.replace(",", "").strip()]
    lines.insert(rng.randint(1, len(lines)), lines[rng.choice(quotes)])
    bad = rng.choice(quotes)
    lines[bad] = lines[bad].rsplit(",", 1)[0] + "," + rng.choice(("0", "-1", "nan", "inf", "x"))
    got = assert_same(_write(tmp_path, "\n".join(lines) + "\n"))
    assert isinstance(got, tuple)


def test_bench_sized_market_is_identical(tmp_path):
    # the dense benchmark's shape: every pair quoted both ways
    got = assert_same(_write(tmp_path, market_csv(1, "complete", 120, one_sided=0.0, skews=0)))
    assert not isinstance(got, tuple)


PRECEDENCE = {
    "duplicate before bad rate": ("1,2,2\n1,2,2\n2,3,abc\n", ":3: duplicate quote 1->2"),
    "duplicate after bad rate": ("1,2,2\n2,3,abc\n1,2,2\n", ":3: rate 'abc' is not a number"),
    "bad rate and duplicate on one line": ("1,2,2\n1,2,0\n", ":3: rate must be positive and finite, got 0"),
    "junk rate and duplicate on one line": ("1,2,2\n1,2,x\n", ":3: rate 'x' is not a number"),
    "non-positive before junk": ("1,2,-1\n2,3,x\n", ":2: rate must be positive and finite, got -1"),
    "blank rows count": ("\n1,2,2\n  ,  , \n \n,,\n1,2,2\n", ":7: duplicate quote 1->2"),
    "narrow row after blank rows": ("\n \n1,2\n", ":4: expected 3 columns, got 2"),
    "wide row before empty src": ("1,2,2,4\n,2,2\n", ":2: expected 3 columns, got 4"),
    "empty dst before narrow row": ("1, ,2\n1,2\n", ":2: empty src or dst"),
    "empty src after quotes": ("1,2,2\n2,3,2\n ,3,2\n", ":4: empty src or dst"),
    "wide row with empty dst": ("1,2,2\n1, ,2,4\n", ":3: expected 3 columns, got 4"),
    "row layout before labels": ("0,1,2\n1,2\n", ":3: expected 3 columns, got 2"),
    "labels before rates": ("0,1,x\n", "integer vertex indices are 1-based"),
    "rates before conflicts": ("1,2,2\n2,1,0.4\n1,3,x\n", ":4: rate 'x' is not a number"),
    "first conflict by pair": (
        "2,3,3\n3,2,0.3\n1,3,3\n3,1,0.3\n",
        "quotes 1->3 and 3->1 multiply to 0.9, not 1",
    ),
    "labelled conflict": (
        "USD,EUR,0.5\nEUR,USD,2.5\n",
        "quotes EUR->USD and USD->EUR multiply to 1.25, not 1",
    ),
    "conflicts before connectivity": ("1,2,2\n2,1,0.4\n3,4,1\n", "quotes 1->2 and 2->1"),
    "disconnected": ("1,2,2\n3,4,1\n", "do not connect every good"),
    "no rows": ("\n , ,\n", "no rate rows"),
}


@pytest.mark.parametrize("text, message", PRECEDENCE.values(), ids=PRECEDENCE.keys())
def test_error_precedence(tmp_path, text, message):
    got = assert_same(_write(tmp_path, "src,dst,rate\n" + text))
    assert isinstance(got, tuple) and message in got[1]


@pytest.mark.parametrize("text", ["", "\n1,2,2\n", "src,dst\n1,2,2\n", "\ufeff\ufeffsrc,dst,rate\n1,2,2\n"])
def test_header_errors(tmp_path, text):
    got = assert_same(_write(tmp_path, text))
    assert isinstance(got, tuple) and "header" in got[1]


def test_missing_file(tmp_path):
    assert isinstance(assert_same(tmp_path / "absent.csv"), tuple)


def _log_disagreement():
    """A rate near 0.5 whose np.log differs from math.log in the last bit,
    where this platform's numpy has one; the drift is judged with math.log."""
    xs = 0.5 * (1.0 + np.arange(1, 20001) * 1e-9)
    differ = xs[np.log(xs) != np.fromiter(map(math.log, xs.tolist()), float)]
    return float(differ[0]) if differ.size else 0.5000001


def test_drift_exactly_at_tolerance_is_accepted(tmp_path):
    a, b = 2.0, _log_disagreement()
    drift = abs(math.log(a) + math.log(b))
    path = _write(tmp_path, f"src,dst,rate\n1,2,{a!r}\n2,1,{b!r}\n")
    assert not isinstance(assert_same(path, tol=drift), tuple)
    got = assert_same(path, tol=math.nextafter(drift, 0.0))
    assert isinstance(got, tuple) and "multiply to" in got[1]


def test_fills_follow_ascending_quotes(tmp_path):
    got = assert_same(_write(tmp_path, "src,dst,rate\n3,1,4\n1,2,2\n2,2,1\n2,3,8\n3,2,0.125\n"))
    assert got.filled == ((2, 1), (1, 3))
    assert got.matrix.entries[0, 2] == 1.0 / 4.0


@settings(max_examples=200, deadline=None)
@given(text=rates_csv())
def test_fuzzed_files(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz_rates.csv"
    path.write_text(text)
    assert_same(path)
