"""The rows of a rates sheet in uint64 numpy passes, a rate as its ``repr``:
the shortest digits that read back to the double, the nearest of them, on a
tie the even one (Steele & White, PLDI 1990), found by Schubfach (Giulietti,
"The Schubfach way to render doubles", 2020). ``arbx.io.save_rates`` alone
imports this module."""

from __future__ import annotations

from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterator

import numpy as np

if TYPE_CHECKING:
    from .io import _Rows

_LOW, _FF = np.uint64(0xFFFFFFFF), (1 << 64) - 1
# by 2 e + (c == 0), e a double's biased exponent: k = floor(log10 2^q) (Giulietti's constant; of 3/4 2^q
# where uneven: c = 2^52 with a gap below half the one above), h, c's implicit bit and uneven
_e, _uneven = np.arange(4096) >> 1, np.arange(4096) & (np.arange(4096) > 3)
_k = ((np.maximum(_e, 1) - 1075) * 661971961083 - _uneven * 274743187321) >> 41
_KH = np.stack([_k, np.maximum(_e, 1) - 1073 + (-_k * 913124641741 >> 38), _e > 0, _uneven]).astype(np.int16)
del _e, _uneven, _k
# by k + 324: g = floor(10^-k 2^-r) + 1 with r = floor(log2 10^-k) - 125, 126 bits, as g >> 63 and its low 63 bits
_g = [(10**-k >> r if r >= 0 else 10**-k << -r) + 1 if k <= 0 else (1 << -r) // 10**k + 1
      for k in range(-324, 293) for r in [(-k * 913124641741 >> 38) - 125]]
_G = np.array([[g >> 63 for g in _g], [g & (1 << 63) - 1 for g in _g]], np.uint64)
del _g
_TENS = 10 ** np.arange(18, dtype=np.uint64)
# by a position p of 24 digits (25: past them), for each of their three words: the bytes before p set
_LEAD = np.array([[(1 << 8 * min(max(p - j, 0), 8)) - 1 for j in (0, 8, 16)] for p in range(26)], np.uint64)
# by p: the byte at p a point, the others set (none at 24)
_DOT = np.array([[_FF ^ 0xD1 << 8 * (p - j) if 0 <= p - j < 8 else _FF for j in (0, 8, 16)] for p in range(25)], np.uint64)
# by 324 plus the exponent, "e", its sign and two or three digits, then nothing and "0"; a newline after each
_TAILS = np.array([int.from_bytes((t + b"\n").ljust(8, b"\xff"), "little")
                   for t in [b"e%+03d" % p for p in range(-324, 309)] + [b"", b"0"]], np.uint64)


def _digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The shortest digits D of each double x > 0, no trailing zero, and E: x is D 10^E read back.
    With x = c 2^q, k = floor(log10 2^q) (of 3/4 2^q where the gap below c is half the one above)
    and g = floor(10^-k 2^-r) + 1 (126 bits), Giulietti's rop of 4c - 2 (or 4c - 1), 4c and 4c + 2,
    shifted by h, times g / 2^127 (to odd, the low 64 bits of g0's product dropped) is x's rounding
    interval and x in quarter units of 10^k. A subnormal c below 3 is taken as 10c at 10^(k - 1)."""
    bits = x.view(np.uint64)
    c = bits & np.uint64((1 << 52) - 1)
    k, h, hidden, uneven = np.take(_KH, (bits >> 52 << 1 | (c == 0)).astype(np.intp), axis=1)
    at = k + 324
    c |= hidden.astype(np.uint64) << 52
    tiny = c < 3
    c[tiny] *= np.uint64(10)
    m = (c << 2) + np.array([[-2], [0], [2]]).astype(np.uint64)
    m[0] += uneven.astype(np.uint64)
    m <<= h.astype(np.uint64)
    z = (m * _G[0, at]) >> 1  # bits 64..126 of g1 m 2^63, wrapped
    m0, m1 = m & _LOW, m >> 32  # m < 2^59 and g1, g0 < 2^63: no sum below overflows
    del m
    high = [m1 * (g >> 32) + ((m1 * (g & _LOW) + m0 * (g >> 32) + (m0 * (g & _LOW) >> 32)) >> 32)
            for g in np.take(_G, at, axis=1)]  # of g1 m and g0 m, by 32-bit products
    z += high[1]  # and bits 64..127 of g0 m: of the product
    lo, mid, hi = high[0] + (z >> 63) | ((z << 1) != 0)
    s = mid >> 2
    a = np.stack([s // 10, s])  # the candidates below v, then b = a + 10 and a + 1 above
    even = ~a & 1
    a[0] *= np.uint64(10)
    b = a + np.array([[10], [1]], np.uint64)
    odd = c & 1  # an even c takes the interval's ends, as round-half-even does
    a_in, b_in = lo + odd <= a << 2, (b << 2) + odd <= hi
    d, tens = np.where(a_in & (~b_in | (mid < ((a + b) << 1) + even)), a, b), a_in[0] | b_in[0]
    d, e, more = np.where(tens, d[0] // 10, d[1]), k - tiny + tens, np.flatnonzero(tens)
    while more.size:  # a multiple of 10 may end in more zeros
        more = more[d[more] // 10 * 10 == d[more]]
        d[more] //= 10
        e[more] += 1
    return d, e


def _ascii(x: np.ndarray) -> np.ndarray:
    """Each x < 10^8 as its 8 digits, the first in the low byte: halves by
    10^4, quarters by 100 and bytes by 10 in lanes, each by a product and a shift."""
    a = x // 10000
    v = a | (x - a * 10000) << 32
    q = (v * 10486) >> 20 & np.uint64(0x0000007F0000007F)
    v = q | (v - q * 100) << 16
    q = (v * 103) >> 10 & np.uint64(0x000F000F000F000F)
    return (q | (v - q * 10) << 8) + np.uint64(0x3030303030303030)


def rate_words(x: np.ndarray, words: np.ndarray) -> None:
    """``repr`` of each double x > 0 and a newline into (len(x), 7) ``words``
    whose 0xFF bytes (never in UTF-8) are left out: 24 digits of D 10^E (D in
    the exponent form) up to the point, the point and the 24 after it, then
    "0" after an integer's point, or "e", the sign and two or three digits."""
    d, e = _digits(x)
    count = np.searchsorted(_TENS, d, "right")
    point = count + e  # the digits before repr's decimal point
    sci = (point + 3).view(np.uint64) > 19  # point <= -4 or point > 16
    whole = ~sci & (e >= 0)  # an integer, written with ".0"
    d *= np.take(_TENS, e * whole)
    after = np.where(sci, count - 1, np.maximum(-e, 0))  # the digits after the point
    top = d // 10**16  # a remainder as x - x // y * y: % by a scalar takes several times as long
    mid = (d - top * 10**16) // 10**8
    chars = _ascii(np.stack([top, mid, d - top * 10**16 - mid * 10**8], axis=1))
    cut = 24 - after + (sci & (count == 1))  # no point after a lone digit before "e"
    lead = np.take(_LEAD, cut, axis=0)
    start = 24 - np.maximum(np.where(whole, point, count), after + 1)  # d's digits, or "0" and zeros
    words[:, :3] = chars | np.take(_LEAD, start, axis=0) | ~lead
    words[:, 3:6] = (chars | lead) & np.take(_DOT, cut - 1, axis=0)
    words[:, 6] = np.take(_TAILS, np.where(sci, point + 323, 633 + whole))


def rate_lines(rows: _Rows, step: int) -> Iterator[bytes]:
    """The lines of the quote ``rows``, ``step`` at a time, each the words of
    its two label cells and their commas, as many as the cells take, then its
    rate's seven; 0xFF bytes are left out. A label's cell is the csv writer's,
    an index's (``rows.labels`` a range) its digits."""
    if isinstance(rows.labels, range):
        cells = list(map(str, rows.labels))
    else:
        import csv
        # a row of the label and an empty cell renders the label as inside a quote row
        cells = []
        csv.writer(SimpleNamespace(write=lambda row: cells.append(row[:-2])), lineterminator="\n").writerows((lab, "") for lab in rows.labels)
    text, size = "".join(cells).encode(), np.fromiter(map(len, map(str.encode, cells)), np.int64, len(cells))
    del cells
    count = (size >> 3) + 1
    first = np.cumsum(count) - count
    cell = np.repeat(np.arange(len(size)), count)  # the cell of each word, and its bytes from the word on
    left = size[cell] - (np.arange(len(cell)) - first[cell]) * 8
    words = np.full((len(cell), 8), 0xFF, np.uint8)
    words[np.arange(8) < left[:, None]] = np.frombuffer(text, np.uint8)
    words[np.arange(8) == left[:, None]] = 44
    words = words.view(np.uint64)[:, 0]
    del text, cell, left
    for at in range(0, len(rows.order), step):
        src, dst, rates = (column[rows.order[at : at + step]] for column in rows.columns)
        texts = np.empty((len(src), 7), np.uint64)
        rate_words(rates, texts)
        ends = np.stack([src, dst], axis=1).ravel()
        span = count[ends]
        cell = np.repeat(np.arange(len(ends)), span)  # the cell of each label word
        word = np.arange(len(cell))
        place = word + 7 * (cell >> 1)  # after the label and rate words of the rows before
        block = bytearray(8 * (len(cell) + 7 * len(src)))  # the rows of a block, translated without a copy
        out, rate = np.frombuffer(block, np.uint64), np.ones(len(block) >> 3, bool)
        out[place], rate[place] = words[word + (first[ends] + span - np.cumsum(span))[cell]], False
        out[rate] = texts.ravel()
        del out, texts, cell, word, place, rate
        yield block.translate(None, b"\xff")
