"""The column rates loader against the per-quote reference.

``load_rates`` parses whole columns at once; on every input it must raise
what the reference raises, with the same message, or return the same labels,
fills, graph and matrix, bits included. Canonical files (bare indices and
decimal rates, see ``arbx.io._CANONICAL_HEADER``) are read in C passes, a
plain rate as one exact long-double quotient and any other rate by
``float()``; every other file goes to the csv tokenizer. Both are held to the
same reference.
"""

import math
import pickle
import random
import re
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arbx.io
from arbx import complete, exp_of, generate_graph
from arbx.errors import ArbxError, ParseError
from arbx.io import RatesFile, load_rates, save_rates
from helpers import random_assignment, reference_load_rates, same_bits
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
    assert same_bits(got.matrix.values, want.matrix.values)
    return got


def _write(tmp_path, text):
    path = tmp_path / "r.csv"
    path.write_text(text)
    return path


def market_csv(seed, kind, n, one_sided=0.4, skews=4, canonical=False):
    """A consistent quote sheet from random potentials, with some reverse
    quotes left out (fills), some loops, up to ``skews`` skewed reverse quotes
    (conflicts or not, depending on the tolerance), shuffled rows and blank
    lines. A ``canonical`` sheet has index labels and no blank lines."""
    rng = random.Random(seed)
    g = generate_graph(kind, n, m=3, seed=seed) if kind == "pa" else generate_graph(kind, n, seed=seed)
    p = [rng.uniform(-3.0, 3.0) for _ in range(n + 1)]
    name = str if canonical or rng.random() < 0.5 else (lambda v: f"c{v}")  # c10 sorts before c2
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
    for _ in range(0 if canonical else rng.randint(0, 3)):
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
    "reciprocal overflow is a bad rate": (
        "1,2,2\n2,3,1e-320\n1,2,2\n",
        ":3: rate 1e-320 is too small: its reciprocal overflows",
    ),
    "reciprocal overflow before conflicts": (
        "1,2,1e308\n2,1,5e-309\n",
        ":3: rate 5e-309 is too small: its reciprocal overflows",
    ),
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


# --- rows end only at CR, LF or CRLF outside quotes


def test_a_quoted_newline_stays_in_its_label(tmp_path):
    # "a\nb" and ab are two goods
    got = assert_same(_write(tmp_path, 'src,dst,rate\n"a\nb",c,2\nab,c,3\nc,"a\nb",0.5\n'))
    assert got.labels == ("a\nb", "ab", "c")
    assert got.filled == ((3, 2),)


@pytest.mark.parametrize("sep", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"])
def test_a_line_boundary_of_str_splitlines_ends_no_row(tmp_path, sep):
    got = assert_same(_write(tmp_path, f"src,dst,rate\nEU{sep}R,USD,2\nUSD,JPY,150\n"))
    assert got.labels == (f"EU{sep}R", "JPY", "USD")


LINES = {
    "after a quoted newline": ('"a\nb",c,1.5\nc,d,zz\n', ":4: rate 'zz' is not a number"),
    "a row spanning lines is numbered by its first": ('a,b,2\n\n"c\n\nd",e\n', ":4: expected 3 columns, got 2"),
    "CRLF": ("1,2,2\r\n\r\n2,3,x\r\n", ":4: rate 'x' is not a number"),
    "lone CR": ("1,2,2\r\r2,3,x\r", ":4: rate 'x' is not a number"),
    "a quoted CRLF": ('"a\r\nb",c,2\r\nc,d,0\r\n', ":4: rate must be positive and finite, got 0"),
}


@pytest.mark.parametrize("text, message", LINES.values(), ids=LINES.keys())
def test_rows_are_numbered_by_the_line_they_start_on(tmp_path, text, message):
    path = tmp_path / "r.csv"
    path.write_bytes(("src,dst,rate\n" + text).encode())
    got = assert_same(path)
    assert isinstance(got, tuple) and message in got[1]


def _csv_cell(draw, text):
    """A cell's text, quoted where it must be and at random elsewhere."""
    must = any(c in text for c in ',"\r\n')
    return '"' + text.replace('"', '""') + '"' if must or draw(st.integers(0, 3)) == 0 else text


SHEET_LABELS = st.sampled_from(["EUR", "USD", " JPY ", "a,b", "a\nb", 'say "x"', "1", "2", "3", "10", "02"])
SHEET_RATES = st.sampled_from(["2", "0.5", "1.0", " 4 ", "1e3", "0", "-1", "nan", "inf", "1e-320", "x", ""])
SHEET_CELLS = st.one_of(SHEET_LABELS, SHEET_RATES, st.sampled_from(["", " ", "\t", "  \t "]))
SHEET_HEADERS = st.sampled_from(["src,dst,rate"] * 4 + ["SRC, dst ,Rate", '"src","dst","rate"', "src,dst", "src,dst,rate,"])


@st.composite
def quoted_sheets(draw):
    """Sheets with quoted cells, blank and whitespace-only rows, rows of 0 to
    4 cells, good, bad and junk rates, LF, CRLF or CR endings and maybe a BOM."""
    quote = st.tuples(SHEET_LABELS, SHEET_LABELS, SHEET_RATES)
    rows = draw(st.lists(st.one_of(quote, quote, quote, st.lists(SHEET_CELLS, max_size=4)), max_size=8))
    ends = st.sampled_from(["\n", "\n", "\r\n", "\r"])
    lines = [draw(SHEET_HEADERS)] + [",".join(_csv_cell(draw, c) for c in row) for row in rows]
    return draw(st.sampled_from(["", "\ufeff"])) + "".join(line + draw(ends) for line in lines)


@settings(max_examples=300, deadline=None)
@given(text=quoted_sheets())
def test_quoted_sheets_match_the_reference(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "quoted_rates.csv"
    path.write_bytes(text.encode())
    assert_same(path)


# --- the column parser of canonical files


@pytest.fixture
def tokenizer_calls(monkeypatch):
    """Count the files that reach the csv tokenizer."""
    calls = []
    inner = arbx.io._rate_columns

    def counting(path, data):
        calls.append(path)
        return inner(path, data)

    monkeypatch.setattr(arbx.io, "_rate_columns", counting)
    return calls


@pytest.fixture
def no_tokenizer(monkeypatch):
    """Fail any file that reaches the csv tokenizer."""

    def refuse(path, data):
        raise AssertionError(f"{path} reached the csv tokenizer")

    monkeypatch.setattr(arbx.io, "_rate_columns", refuse)


CANONICAL = {
    "complete, both directions": market_csv(3, "complete", 40, one_sided=0.0, skews=0, canonical=True),
    "pa, one-sided quotes and loops": market_csv(4, "pa", 200, skews=0, canonical=True),
    "a single row": "src,dst,rate\n1,2,2.5\n",
    "a single loop": "src,dst,rate\n1,1,1.0\n",
    "no trailing newline": "src,dst,rate\n1,2,2\n2,3,0.5\n3,1,1.0",
    "a BOM": "\ufeffsrc,dst,rate\n1,2,2\n2,3,0.5\n",
    "rate 1.e5": "src,dst,rate\n1,2,1.e5\n",
    "rate .5": "src,dst,rate\n1,2,.5\n2,1,2\n",
    "rate 1E+5": "src,dst,rate\n1,2,1E+5\n",
    "rate 2e-05": "src,dst,rate\n1,2,2e-05\n2,3,7\n",
    "a conflict": "src,dst,rate\n1,2,2\n2,1,0.4\n",
    "disconnected": "src,dst,rate\n1,2,2\n3,4,2\n",
    # a block ends at the first row end past 64 KiB: the first one here is
    # plain, and the second holds an exponent-form and an integer rate
    "a plain block, then one with 2.5e-3 and 7": "src,dst,rate\n"
    + "".join(f"{k},{k + 1},1.25\n" for k in range(1, 6001))
    + "6001,6002,2.5e-3\n6002,6003,7\n6003,6004,1.25\n",
    "a plain last row without its newline": "src,dst,rate\n1,2,2.5\n2,3,0.5\n3,4,1.0",
    "rate 00.5 among plain rates": "src,dst,rate\n1,2,00.5\n2,3,1.25\n",
    "rates 5. and .5 among plain rates": "src,dst,rate\n1,2,5.\n2,3,.5\n3,4,1.25\n",
    "parts of 18 and 19 digits": "src,dst,rate\n1,2,123456789012345678.5\n2,3,1234567890123456789.5\n"
    "3,4,0.123456789012345678\n4,5,0.1234567890123456789\n5,6,1.123456789012345678\n6,7,999999999999999999.99\n",
    "rate 0.0 and 17 digits": "src,dst,rate\n1,2,0.012345678901234567\n2,3,1.5\n",
}


@pytest.mark.parametrize("text", CANONICAL.values(), ids=CANONICAL.keys())
def test_canonical_sheets_take_the_column_path(tmp_path, no_tokenizer, text):
    assert_same(_write(tmp_path, text))


@pytest.mark.parametrize("seed", range(3))
def test_canonical_markets_are_identical(tmp_path, no_tokenizer, seed):
    path = _write(tmp_path, market_csv(seed, "pa", 300, skews=0, canonical=True))
    assert "edges" not in vars(load_rates(path).matrix.graph)  # built only when read
    got = assert_same(path)
    assert not isinstance(got, tuple) and got.filled


NEAR_MISSES = {
    "leading zero": "src,dst,rate\n01,2,2\n2,3,3\n",
    # five rows: indices of two digits are read
    "src with a leading zero among plain rates": "src,dst,rate\n1,2,2.5\n02,3,3.5\n3,4,1.5\n4,5,1.5\n5,6,1.5\n",
    "dst with a leading zero among plain rates": "src,dst,rate\n1,2,2.5\n2,03,3.5\n3,4,1.5\n4,5,1.5\n5,6,1.5\n",
    "plus sign": "src,dst,rate\n+1,2,2\n2,3,3\n",
    "space": "src,dst,rate\n1, 2,2\n2,3,3\n",
    "tab": "src,dst,rate\n1,2,2\t\n2,3,3\n",
    "CRLF": "src,dst,rate\r\n1,2,2\r\n2,3,3\r\n",
    "quoted field": 'src,dst,rate\n"1",2,2\n2,3,3\n',
    "blank line": "src,dst,rate\n1,2,2\n\n2,3,3\n",
    "trailing blank line": "src,dst,rate\n1,2,2\n2,3,3\n\n",
    "two BOMs": "\ufeff\ufeffsrc,dst,rate\n1,2,2\n",
    "upper-case header": "SRC,DST,RATE\n1,2,2\n2,3,3\n",
    "header only": "src,dst,rate\n",
    "inf": "src,dst,rate\n1,2,inf\n2,3,3\n",
    "nan": "src,dst,rate\n1,2,nan\n2,3,3\n",
    "zero": "src,dst,rate\n1,2,2\n2,3,0\n",
    "overflowing rate": "src,dst,rate\n1,2,1e999\n2,3,3\n",
    "underflowing rate": "src,dst,rate\n1,2,1e-400\n2,3,3\n",
    "overflowing reciprocal": "src,dst,rate\n1,2,1e-320\n",
    "index 2**63": f"src,dst,rate\n1,2,2\n2,{2**63},3\n",
    "index 2**63 - 1": f"src,dst,rate\n1,2,2\n2,{2**63 - 1},3\n",
    "index above the token count": "src,dst,rate\n1,2,2\n2,5,3\n",
    "index gap": "src,dst,rate\n1,2,2\n2,4,3\n",
    "index gap before a conflict": "src,dst,rate\n1,2,2\n2,1,0.4\n2,4,3\n",
    "index zero": "src,dst,rate\n0,1,2\n",
    "duplicate row": "src,dst,rate\n1,2,2\n2,3,3\n1,2,2\n",
    "two columns": "src,dst,rate\n1,2,2\n2,3\n",
    "label": "src,dst,rate\n1,2,2\n2,EUR,3\n",
    "bare dot": "src,dst,rate\n1,2,.\n",
    "negative exponent sign only": "src,dst,rate\n1,2,1e-\n",
}


@pytest.mark.parametrize("text", NEAR_MISSES.values(), ids=NEAR_MISSES.keys())
def test_near_misses_fall_back_to_the_tokenizer(tmp_path, tokenizer_calls, text):
    path = _write(tmp_path, text)
    assert_same(path)
    assert tokenizer_calls == [path]


@pytest.mark.parametrize(
    "data, offset",
    [(b"src,dst,rate\n1,2,\xff\n", 17), (b"\xef\xbb\xbfsrc,dst,rate\n1,2,2\n2,\xc3(,3\n", 24)],
)
def test_invalid_utf8_names_the_byte(tmp_path, data, offset):
    path = tmp_path / "r.csv"
    path.write_bytes(data)
    got = assert_same(path)
    assert got == (arbx.errors.ParseError, f"{path}: not UTF-8 text: invalid byte at offset {offset}")


@pytest.mark.parametrize("kind", ["complete", "pa", "tree"])
@pytest.mark.parametrize("loops", [False, True])
def test_saved_index_sheets_take_the_column_path(tmp_path, no_tokenizer, kind, loops):
    g = generate_graph(kind, 30, m=2, seed=5) if kind == "pa" else generate_graph(kind, 30, seed=5)
    if loops:
        g = arbx.new_graph(g.n, [*g.edges, (3, 3), (30, 30)])
    rates = exp_of(complete(random_assignment(g, 11, scale=300.0)))
    path = tmp_path / "saved.csv"
    save_rates(path, rates)
    got = assert_same(path)
    assert same_bits(got.matrix.values, rates.values) and not got.filled


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    position=st.floats(0.0, 1.0, exclude_max=True),
    byte=st.integers(0, 255),
)
def test_one_byte_mutations(tmp_path_factory, seed, position, byte):
    """A canonical sheet with one byte replaced takes whichever path its
    bytes select, and both loaders agree on it."""
    data = bytearray(market_csv(seed % 16, "complete", 6, canonical=True).encode())
    data[int(position * len(data))] = byte
    path = tmp_path_factory.getbasetemp() / "mutated.csv"
    path.write_bytes(bytes(data))
    assert_same(path)


# --- the C-pass screen of canonical files, and the order and drift screens

SCREENED = {
    "dst with a leading zero": "src,dst,rate\n1,02,2\n2,3,3\n",
    "dst with a sign": "src,dst,rate\n1,+2,2\n2,3,3\n",
    "index 1.0": "src,dst,rate\n1.0,2,2\n2,3,3\n",
    "index 1e0": "src,dst,rate\n1e0,2,2\n2,3,3\n",
    # as long as the digits of 100: only an index's own digits are read, so
    # the "e" stops it where a reader of integers through floats would not
    "index 1e2": "src,dst,rate\n" + "".join(f"{v},{v + 1},2\n" for v in range(1, 99)) + "99,1e2,2\n",
    # the digits of 1000 run one byte past each field, and so past the file
    "indices 1e3 ending the file": "src,dst,rate\n" + "".join(f"{v},{v + 1},2\n" for v in range(1, 1000)) + "1e3,1e3,2",
    "# inside a rate": "src,dst,rate\n1,2,2#5\n2,3,3\n",
    "rate 1_0": "src,dst,rate\n1,2,1_0\n2,3,3\n",
    "four columns": "src,dst,rate\n1,2,2\n2,3,3,4\n",
    "CR-only line ends": "src,dst,rate\r1,2,2\r2,3,3\r",
    "CR-only row ends": "src,dst,rate\n1,2,2\r2,3,3\r",
    "19-digit index": "src,dst,rate\n1,2,2\n2,1000000000000000000,3\n",
    "NUL byte": "src,dst,rate\n1,2,2\x00\n2,3,3\n",
    "blank first row": "src,dst,rate\n\n1,2,2\n",
    "only blank rows": "src,dst,rate\n\n\n",
    "a blank row and no last newline": "src,dst,rate\n1,2,2\n\n2,3,3",
}


@pytest.mark.parametrize("text", SCREENED.values(), ids=SCREENED.keys())
def test_screened_sheets_reach_the_tokenizer(tmp_path, tokenizer_calls, text):
    path = _write(tmp_path, text)
    assert_same(path)
    assert tokenizer_calls == [path]


def _last_block_faults():
    """A canonical sheet of more than two blocks whose last row is rewritten,
    and what the tokenizer makes of it (None: a rates file): a space after
    its first comma, a repeat of the first row (whose key sits in the first
    block), or a rate of 0."""
    head, *rows = market_csv(5, "complete", 100, one_sided=0.0, skews=0, canonical=True).splitlines()
    last, line = rows[-1], len(rows) + 1
    yield "space after a comma", [*rows[:-1], last.replace(",", ", ", 1)], None
    yield "repeated quote", [*rows, rows[0]], f":{line + 1}: duplicate quote"
    yield "rate 0", [*rows[:-1], last.rsplit(",", 1)[0] + ",0"], f":{line}: rate must be positive and finite, got 0"


LAST_BLOCK_FAULTS = {name: ("src,dst,rate\n" + "\n".join(rows) + "\n", error) for name, rows, error in _last_block_faults()}


@pytest.mark.parametrize("text, error", LAST_BLOCK_FAULTS.values(), ids=LAST_BLOCK_FAULTS.keys())
def test_a_fault_in_the_last_block_reaches_the_tokenizer_once(tmp_path, tokenizer_calls, text, error):
    # the bytes outlive every block and the key order, so that a file sent
    # to the tokenizer by its last rows is read from them once
    path = _write(tmp_path, text)
    assert len(text) > 2 * arbx.io._SCAN and text.rfind("\n", 0, -1) > len(text) - arbx.io._SCAN
    got = assert_same(path)
    assert tokenizer_calls == [path]
    assert (got[1].startswith(f"{path}{error}") if error else not isinstance(got, tuple)), got


def _key_ordered(seed):
    """The rows of a canonical sheet in the order save_rates writes them:
    by pair (lo, hi), lo -> hi first."""
    head, *rows = market_csv(seed, "pa", 60, skews=0, canonical=True).splitlines()

    def key(row):
        i, j = map(int, row.split(",")[:2])
        return min(i, j), max(i, j), i > j

    return head, sorted(rows, key=key)


@pytest.mark.parametrize("seed", range(3))
def test_key_ordered_and_shuffled_sheets_agree(tmp_path, no_tokenizer, seed):
    head, rows = _key_ordered(seed)
    shuffled = random.Random(seed).sample(rows, len(rows))
    got = [load_rates(_write(tmp_path, "\n".join([head, *r]) + "\n")) for r in (rows, shuffled)]
    assert pickle.dumps(got[0]) == pickle.dumps(got[1])


@pytest.mark.parametrize("seed", range(3))
def test_a_duplicate_row_reads_the_same_in_either_order(tmp_path, seed):
    # both copies keep their lines; every other row is shuffled
    head, rows = _key_ordered(seed)
    k = random.Random(seed).randrange(len(rows))
    rows.insert(k + 1, rows[k])
    others = [r for m, r in enumerate(rows) if m not in (k, k + 1)]
    random.Random(seed).shuffle(others)
    shuffled = others[:k] + rows[k : k + 2] + others[k:]
    got = [assert_same(_write(tmp_path, "\n".join([head, *r]) + "\n")) for r in (rows, shuffled)]
    assert got[0] == got[1] and "duplicate quote" in got[0][1]


def _drifted_sheet(pairs):
    """A path 1 - 2 - ... quoted both ways, each pair's rates a and b."""
    rows = [f"{v},{v + 1},{a!r}\n{v + 1},{v},{b!r}" for v, (a, b) in enumerate(pairs, 1)]
    return "src,dst,rate\n" + "\n".join(rows) + "\n"


def _log_disagreements():
    """Rates from 1e-300 to 1e300 whose np.log differs from math.log in the
    last bit, where this platform's numpy has any."""
    xs = 10.0 ** np.linspace(-300.0, 300.0, 100_001)
    differ = xs[np.log(xs) != np.fromiter(map(math.log, xs.tolist()), float, xs.size)]
    return differ.tolist() or [_log_disagreement()]


DISAGREEMENTS = _log_disagreements()


@st.composite
def drifted_pairs(draw):
    """Rate pairs from 1e-300 to 1e300 and a tolerance. Each pair's drift
    log a + log b is planted at +-tol, a few ulps from it, or far off; or
    tol is moved to within a few ulps of the drift as math.log or np.log
    sums it. Half the rates a are ones whose two logs differ."""
    tol = draw(st.floats(1e-15, 1e-3))
    pairs = []
    for _ in range(draw(st.integers(1, 4))):
        a = draw(st.one_of(st.sampled_from(DISAGREEMENTS), st.floats(-300.0, 300.0).map(lambda e: 10.0**e)))
        k = draw(st.integers(-4, 4))
        target = draw(
            st.sampled_from([tol, tol * (1.0 + k * 2.0**-52), tol * 0.5, tol * 2.0, 0.0])
        ) * draw(st.sampled_from([1.0, -1.0]))
        b = math.exp(target - math.log(a))
        log = draw(st.sampled_from([None, math.log, lambda x: float(np.log(x))]))
        drift = abs(log(a) + log(b)) if log else 0.0
        if drift:
            tol = drift * (1.0 + k * 2.0**-52)
        pairs.append((a, b))
    return pairs, tol


@settings(max_examples=300, deadline=None)
@given(case=drifted_pairs())
def test_drift_screen_matches_math_log(tmp_path_factory, case):
    pairs, tol = case
    path = tmp_path_factory.getbasetemp() / "drift.csv"
    path.write_text(_drifted_sheet(pairs))
    assert_same(path, tol)


def test_a_consistent_sheet_sends_no_pair_to_math_log(tmp_path, monkeypatch):
    path = _write(tmp_path, market_csv(1, "complete", 250, one_sided=0.0, skews=0, canonical=True))
    calls = []
    log = math.log
    monkeypatch.setattr(math, "log", lambda x: calls.append(x) or log(x))
    got = load_rates(path)
    monkeypatch.undo()
    assert calls == [] and not got.filled
    assert_same(path)


# --- the quote kernel: every rate float()'s bits, plain ones by one division


def _kernel_rates(texts):
    """The rates the quote kernel reads from rows "1,1,<text>", one block."""
    data = "".join(f"1,1,{t}\n" for t in texts).encode()
    block = arbx.io._quote_block(data, 0, len(data), 1)
    assert block is not None, texts
    return block[2]


def _near_midpoint(x, digits, step):
    """The midpoint between the double x and the next one up, rounded to
    ``digits`` significant digits and moved ``step`` units in its last one,
    written without an exponent."""
    mid = (Decimal(x) + Decimal(math.nextafter(x, math.inf))) / 2
    unit = Decimal(1).scaleb(mid.adjusted() - digits + 1)
    return format(mid.quantize(unit) + step * unit, "f")


def _dotted(digits, at):
    return digits[:at] + "." + digits[at:]


def _near_midpoints(exponents, digits):
    """Texts of _near_midpoint for doubles m * 2^e, m of 53 bits."""
    doubles = st.builds(math.ldexp, st.integers(2**52, 2**53 - 1), exponents)
    return st.builds(_near_midpoint, doubles, digits, st.integers(-1, 1))


RATE_TEXTS = st.one_of(
    st.floats(1e-8, 1e17).map(repr),
    st.builds(lambda x, k: "%.*g" % (k, x), st.floats(1e-8, 1e17), st.integers(1, 17)),
    st.builds(_dotted, st.text("0123456789", min_size=1, max_size=18), st.integers(0, 18)),
    _near_midpoints(st.integers(-62, 4), st.integers(15, 18)),
    # 18 digits in the binades of 64 and 2^53, whose lower parts (below 100
    # and 10^16) have a last digit of 10 to 15 ulps of a 64-bit long double:
    # one text in about 250 rounds onto a float64 midpoint on x87
    _near_midpoints(st.sampled_from([-46, 1]), st.just(18)),
)
# on x87 the last two read wrongly if a quotient rounded onto a midpoint went on to float64
FIXED_TEXTS = ["9007199254740993", "9007199254740993.0", "0.30000000000000004", ".5", "5.", "1.e5"]
FIXED_TEXTS += ["94.3362381326613999", "91.8095376814758950"]
# a 0.0 rate of 17 digits, parts of 18 and 19 digits and an N at 10^20: "1.e5" keeps them off the plain path
FIXED_TEXTS += ["0.012345678901234567", "123456789012345678.5", "1234567890123456789.5", "0.123456789012345678"]
FIXED_TEXTS += ["0.1234567890123456789", "999999999999999999.99"]


@settings(max_examples=400, deadline=None)
@given(texts=st.lists(RATE_TEXTS, min_size=1, max_size=12))
def test_kernel_rates_are_the_bits_of_float(texts):
    assert same_bits(_kernel_rates(texts), [float(t) for t in texts])


def test_fixed_kernel_rates_are_the_bits_of_float():
    assert same_bits(_kernel_rates(FIXED_TEXTS), [float(t) for t in FIXED_TEXTS])


@pytest.fixture
def float_calls(monkeypatch):
    """The rate texts the kernel hands to float()."""
    calls = []
    monkeypatch.setattr(arbx.io, "float", lambda text: calls.append(text) or float(text), raising=False)
    return calls


def test_only_rates_of_another_form_go_to_float(tmp_path, no_tokenizer, float_calls):
    # a path quoted both ways, its rates plain but every seventh pair's in
    # e-notation: each of those costs one float() call, and no other rate does
    def text(k, rate):
        return "%e" % rate if k % 7 == 0 else repr(rate)

    pairs = [(1.0 + k / 700, 1.0 / (1.0 + k / 700)) for k in range(1, 300)]
    rows = [f"{k},{k + 1},{text(k, a)}\n{k + 1},{k},{text(k, b)}" for k, (a, b) in enumerate(pairs, 1)]
    assert_same(_write(tmp_path, "src,dst,rate\n" + "\n".join(rows) + "\n"), tol=1e-5)
    assert len(float_calls) == 2 * (299 // 7) and all(b"e" in t for t in float_calls)


def test_plain_rates_of_17_digits_after_0_0_skip_float(tmp_path, no_tokenizer, float_calls):
    # 0.0 and 17 significant digits: a run of 19 digits, but a = 0 and b of 18
    rng = random.Random(17)
    rows = [f"{k},{k + 1},0.0{rng.randrange(10**16, 10**17)}\n" for k in range(1, 300)]
    assert_same(_write(tmp_path, "src,dst,rate\n" + "".join(rows)))
    assert float_calls == []


def test_plain_rates_of_17_digits_after_0_0_skip_float_beside_an_exponent(tmp_path, no_tokenizer, float_calls):
    # the one rate in e-notation sends the block off the plain path; the
    # others still read as a = 0 and an 18-digit b, and only it goes to float()
    rng = random.Random(101)
    rows = [f"{k},{k + 1},0.0{rng.randrange(10**16, 10**17)}\n" for k in range(1, 300)]
    rows[150] = "151,152,2.5e-3\n"
    assert_same(_write(tmp_path, "src,dst,rate\n" + "".join(rows)))
    assert float_calls == [b"2.5e-3"]


def test_no_digit_run_past_int64_reaches_fromstring(tmp_path, monkeypatch):
    # np.fromstring reads a run past int64's largest value as that value
    seen = []
    fromstring = np.fromstring
    monkeypatch.setattr(np, "fromstring", lambda text, *a, **k: seen.append(text) or fromstring(text, *a, **k))
    rates = ["12345678901234567890.5", "0.000000000000000000000123", "1234567890123456789", "0.0123456789012345678"]
    rates += ["1.2345678901234567e-300", "123456789012345678.0", ".999999999999999999", "99999999999999999999."]
    for rate in rates:
        assert_same(_write(tmp_path, f"src,dst,rate\n1,2,{rate}\n2,3,7.5\n"))
    assert_same(_write(tmp_path, "src,dst,rate\n1,2,2.5\n2,10000000000000000000,3.5\n"))
    assert len(seen) == len(rates)
    assert max(len(run) for text in seen for run in re.findall(rb"[0-9]+", text)) <= 18


@pytest.fixture
def float_only(monkeypatch):
    """The kernel where no long double is exact: every rate goes to float()."""
    monkeypatch.setattr(arbx.io, "_EXACT_QUOTIENT", False)


@pytest.mark.parametrize("text", CANONICAL.values(), ids=CANONICAL.keys())
def test_canonical_sheets_without_an_exact_long_double(tmp_path, no_tokenizer, float_only, float_calls, text):
    test_canonical_sheets_take_the_column_path(tmp_path, None, text)
    assert len(float_calls) == text.count("\n") - 1 + (not text.endswith("\n"))


@pytest.mark.parametrize("seed", range(3))
def test_canonical_markets_without_an_exact_long_double(tmp_path, no_tokenizer, float_only, seed):
    test_canonical_markets_are_identical(tmp_path, None, seed)


@pytest.mark.parametrize("kind", ["complete", "pa", "tree"])
@pytest.mark.parametrize("loops", [False, True])
def test_saved_index_sheets_without_an_exact_long_double(tmp_path, no_tokenizer, float_only, kind, loops):
    test_saved_index_sheets_take_the_column_path(tmp_path, None, kind, loops)


# --- goods named by their indices: their labels built only when read

INDEX_SHEETS = {
    "canonical": "".join(f"{v},{v + 1},2\n" for v in range(1, 12)),
    "tokenized": "".join(f"{v}, {v + 1},2\n" for v in range(1, 12)),
}


@pytest.mark.parametrize("rows", INDEX_SHEETS.values(), ids=INDEX_SHEETS.keys())
def test_index_of_an_index_sheet_matches_its_label_table(tmp_path, rows):
    # a label that is an index is its digits: ASCII, no leading 0, at most n;
    # any other is looked up in the table, with the same error text
    path = _write(tmp_path, "src,dst,rate\n" + rows)
    built = load_rates(path)
    n = built.matrix.n
    table = RatesFile(matrix=built.matrix, labels=tuple(map(str, range(1, n + 1))), filled=built.filled)
    rates = load_rates(path)
    for label in ("1", str(n)):
        assert rates.index_of(label) == table.index_of(label) == int(label)
    assert "labels" not in vars(rates)
    for label in ("0", "01", str(n + 1), "+1", " 1", "1.0", "", "١", "1" * 25):
        errors = []
        for loaded in (load_rates(path), table):
            with pytest.raises(ParseError) as exc:
                loaded.index_of(label)
            errors.append(str(exc.value))
        assert errors == [f"unknown label {label!r}"] * 2
    assert rates.labels == table.labels and rates == table and hash(rates) == hash(table)
