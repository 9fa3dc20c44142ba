"""The rates writer renders each rate as Python's ``repr`` and each label as
the csv writer's cell: ``arbx._repr`` against ``repr`` on seeded random
doubles and on the edges of its layout, and ``save_rates`` on labels that hold
NUL, csv specials and cells of several words."""

import math

import numpy as np
import pytest

from arbx import _repr
from arbx.exchange import RateMatrix
from arbx.graph import new_graph
from arbx.io import save_rates
from helpers import reference_rates_text


def rate_texts(x) -> list[str]:
    """The writer's text of each rate, 4,096 at a time."""
    x = np.asarray(x, np.float64)
    texts = []
    for start in range(0, len(x), 4096):
        block = x[start : start + 4096]
        words = np.empty((len(block), 7), np.uint64)
        _repr.rate_words(block, words)
        texts += words.tobytes().translate(None, b"\xff").decode().split("\n")[:-1]
    return texts


def assert_repr(x) -> None:
    x = np.asarray(x, np.float64)
    got, want = rate_texts(x), list(map(repr, x.tolist()))
    wrong = [(g, w) for g, w in zip(got, want) if g != w]
    assert len(got) == len(want) and not wrong, wrong[:10]


def test_random_bit_patterns_of_positive_finite_doubles():
    rng = np.random.default_rng(20261020)
    for _ in range(10):  # 10^6 doubles, subnormals included
        assert_repr(rng.integers(1, 0x7FF0000000000000, 100_000, dtype=np.int64).view(np.float64))


def test_every_power_of_two():
    assert_repr(np.ldexp(1.0, np.arange(-1074, 1024)))


def neighbours(x: float) -> list[float]:
    """x and the doubles next to it, those positive and finite."""
    return [y for y in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)) if 0.0 < y < math.inf]


@pytest.mark.parametrize("x", [5e-324, 1e-323, 2.2250738585072014e-308, 1.7976931348623157e308, 2.0**53,
                               1e-4, 1e-5, 1e15, 1e16, 1e22, 1e23, 0.1, 1.0, 9.5, 123456789012345680.0])
def test_edges_of_the_layout_and_their_neighbours(x):
    # the least subnormal, normal and the largest double; 2^53; the switches
    # to the exponent form below 1e-4 and from 1e16; exact integers
    assert_repr(neighbours(x))


def test_every_power_of_ten_and_its_neighbours():
    assert_repr([y for p in range(-323, 309) for y in neighbours(float(f"1e{p}"))])


def test_integers_and_short_decimals():
    # an integer's ".0", trailing zeros of the shortest digits, and whole numbers past 2^53
    assert_repr([1.0, 10.0, 100.0, 2.5, 0.5, 1500.0, 1e15 + 2, 4.8277156324652856e16, 907306321823538.25])


# labels that hold NUL, an empty cell, csv specials, cells of one to four
# words and one of 5,001 words among them
LABELS = ["\x00", "", '"', ",", "\r", "\n", "\x1f", "a\x00b", "1234567", "12345678", "é" * 8, "€" * 5 + "x" * 16, "y" * 40_000]


@pytest.mark.parametrize("labels", [LABELS, None])
def test_save_rates_of_labels_with_nul_and_csv_specials(tmp_path, labels):
    n = len(LABELS)
    g = new_graph(n, [(1, 1), *((v, v + 1) for v in range(1, n)), (1, n), (3, 3), (2, 9), (4, 11)])
    rng = np.random.default_rng(3)
    quotes = {}
    for i, j in sorted(g.edges):
        quotes[(i, j)], quotes[(j, i)] = 10.0 ** rng.uniform(-40, 40), 10.0 ** rng.uniform(-40, 40)
    r = RateMatrix.from_quotes(g, quotes)
    save_rates(tmp_path / "r.csv", r, labels)
    assert (tmp_path / "r.csv").read_bytes() == reference_rates_text(r, labels).encode("utf-8")
