"""File formats for the CLI (graph JSON, rates CSV, basis and perturbation
JSON) plus the run-report record every command emits.

Rates CSV convention: header ``src,dst,rate``; a row means one unit of
``src`` buys ``rate`` units of ``dst``, which is matrix entry (src, dst).
Worked example: the row ``EUR,USD,1.25`` sets entry (EUR, USD) = 1.25, the
price of one euro in dollars. Columns may use 1-based integer indices or
arbitrary string labels; labels get indices in sorted order, and a report
lists the table unless the goods are named by their indices.

Graph, basis and perturbation JSON laid out as ``save_graph``, the CLI's
reports and ``json.dumps`` lay them out (keys in either order, spaces and
newlines between tokens) is read in C passes, pair lists as int64 arrays;
every other file goes to json.loads. The object or the error is the same.
"""

from __future__ import annotations

import codecs
import json
import math
import re
import sys
import warnings
from contextlib import suppress
from functools import cached_property, partial
from io import BytesIO, TextIOWrapper
from itertools import chain, islice, permutations, repeat
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from .errors import BadParamsError, NotConnectedError, ParseError, ReciprocalConflictError
from .exchange import DEFAULT_TOL, ArbitrageWitness, RateMatrix, require_tol
from .graph import MarketGraph, _Record, _set_fields, _spans, is_connected, new_graph

if TYPE_CHECKING:  # imported by the readers that build them, so that a command loads only its layers
    from .basis import BasisAssignment, BasisSpec
    from .dynamics import PerturbationVector

# A canonical rates file: the bare header (a BOM allowed), then one or more
# rows of two 1-based indices, each exactly its digits, and a rate that
# float() reads, written with digits and ".eE+-" only, each row ending in
# "\n" but for the last. _quote_block reads it a block of rows at a time in
# C passes, each rate a.b as two integers and any other by float(); the csv
# tokenizer reads any other file.
_CANONICAL_HEADER = b"src,dst,rate\n"
_SCAN = 1 << 16  # bytes a block of rows reaches before its last row ends
_RUN = 18  # digits that np.fromstring reads into an int64 without saturating
_TENS = 10 ** np.arange(_RUN + 1, dtype=np.int64)  # each exact in the long doubles below
_PLAIN = np.frombuffer(b",,.\n", np.uint32)[0]  # a plain row's bytes other than digits
# a long double of 64 (x87) or 113 (IEEE quad) significand bits holds every
# _RUN-digit integer and 10^f up to 10^27, so that their quotient rounds once
_EXACT_QUOTIENT = np.finfo(np.longdouble).nmant in (63, 112)

# np.log's and math.log's drifts differ by at most 18u(|log a| + |log b|), u = 2^-53,
# when each log is within 4 ulps (numpy tests float64 log to 1, glibc documents 1)
# and each sum rounds by u (Higham, 2nd ed., §4.2); closer to tol, math.log judges.
_LOG_BAND = 2.0**-48  # 32u

# the label table (empty where the goods are named by their indices), the
# count of goods, the keys of _quote_keys ascending, the rates in that order
_Quotes = tuple[tuple[str, ...], int, np.ndarray, np.ndarray]


# json's C encoder, the one json.dumps takes only without an indent. Its item
# separator "\x1f" is escaped inside every JSON string, so in its output it
# marks exactly the boundaries between items.
_FLAT = json.JSONEncoder(separators=("\x1f", ": ")).encode
_SCALARS = frozenset({str, int, float, bool, type(None)})
_BLOCK = 1024  # rows or list items encoded at a time
_OWN_SHA256_BELOW = 920_000  # bytes: where _digest's two SHA-256s take a CLI run the same time


def _json_text(value: object) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte."""
    return "".join(_json_chunks(value))


def _json_chunks(value: object, indent: str = "", nulls: bool = False) -> Iterator[str]:
    """:func:`_json_text` in pieces, with ``indent`` before every line but
    the first, a :class:`_Rows` block one block at a time as its list form
    with ±inf as null, and with ``nulls`` the value, and each value of a
    dict, as :func:`_inf_to_none` maps it. A flat list is encoded by the C
    encoder a block at a time and laid out by replacing its separators; a
    dict with string keys recurses, any other value goes to json.dumps."""
    deeper = indent + "  "
    if type(value) is _Rows:
        values = partial(_json_cells, nulls=True)
        blocks = value._render(_json_cells, f",\n{deeper}[\n{deeper}  ", f",\n{deeper}  ", f"\n{deeper}]", values)
        first = next(blocks, None)  # its rows lead with ",\n", where the list opens with "[\n"
        yield from ["[]"] if first is None else chain(["[" + first[1:]], blocks, [f"\n{indent}]"])
    elif type(value) in (dict, list, tuple) and not value or type(value) in _SCALARS:
        yield _FLAT(_inf_to_none(value) if nulls else value)
    elif type(value) is dict and set(map(type, value)) <= {str}:
        for sep, k in zip(chain(["{\n"], repeat(",\n")), sorted(value)):
            yield f"{sep}{deeper}{_FLAT(k)}: "
            yield from _json_chunks(value[k], deeper, nulls)
        yield f"\n{indent}}}"
    elif type(value) in (list, tuple) and set(map(type, value)) <= _SCALARS:
        sep = ",\n" + deeper
        for lead, block in zip(chain([f"[\n{deeper}"], repeat(sep)), _flat_blocks(value, nulls)):
            yield lead + block.replace("\x1f", sep)
        yield f"\n{indent}]"
    else:
        yield json.dumps(_inf_to_none(value) if nulls else value, indent=2, sort_keys=True).replace("\n", "\n" + indent)


def _flat_blocks(items: Sequence, nulls: bool = False) -> Iterator[str]:
    """The C encoder's text of each _BLOCK items, brackets cut off, ±inf as null with ``nulls``."""
    for start in range(0, len(items), _BLOCK):
        block = items[start : start + _BLOCK]
        yield _FLAT(_inf_to_none(block) if nulls else list(block))[1:-1]


def _json_cells(items: Sequence, nulls: bool = False) -> list[str]:
    """Each item's JSON text, from one call of the C encoder per block, ±inf as null with ``nulls``."""
    return [cell for block in _flat_blocks(items, nulls) for cell in block.split("\x1f")]


class _Rows(_Record, eq=False):
    """Read-only report rows [labels[i], labels[j]] or [labels[i], labels[j],
    value] over arrays, read _BLOCK rows at a time, so that no list per row
    is held: ``columns`` are the 0-based i and j and maybe the float values,
    and the rows are their positions ``order``."""

    columns: Sequence[np.ndarray]
    labels: Sequence
    order: np.ndarray

    def _blocks(self) -> Iterator[list[list]]:
        """Each block's columns as lists."""
        for start in range(0, len(self.order), _BLOCK):
            yield [column[self.order[start : start + _BLOCK]].tolist() for column in self.columns]

    def _render(self, encode: Callable, lead: str, sep: str, tail: str, numbers: Callable) -> Iterator[str]:
        """Each block's text, a row as ``lead``, its cells parted by ``sep``
        and ``tail``: a label as its item of the list ``encode(labels)``, the
        values as ``numbers(values)``."""
        if not len(self.order):
            return
        cells = encode(self.labels)
        for src, dst, *values in self._blocks():
            rows = zip(map(cells.__getitem__, src), map(cells.__getitem__, dst), *map(numbers, values))
            yield lead + (tail + lead).join(map(sep.join, rows)) + tail

    def tolist(self) -> list[list]:
        """The rows as lists."""
        get, rows = self.labels.__getitem__, []
        for src, dst, *values in self._blocks():
            rows += map(list, zip(map(get, src), map(get, dst), *values))
        return rows


def _digest(data: bytes) -> str:
    # A CLI run digests each input once, then exits. After numpy 2, OpenSSL's hashlib loads in
    # 3-4 ms and 3.5 MB, then hashes 1 ms/MB; CPython's own SHA-256 (_sha2 from 3.12, _sha256
    # before) loads in 0.3 ms and hashes 4-7 ms/MB. Below the break-even it digests unless hashlib is loaded.
    if len(data) < _OWN_SHA256_BELOW and "hashlib" not in sys.modules:
        for name in ("_sha2", "_sha256"):
            with suppress(ImportError):
                return "sha256:" + __import__(name).sha256(data).hexdigest()
    import hashlib
    return "sha256:" + hashlib.sha256(data).hexdigest()


def file_digest(path: str | Path) -> str:
    import hashlib  # a library process loads OpenSSL's module once, then hashes 4-7x faster
    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _read_bytes(path: str | Path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _taken(data: bytes | list[bytes]) -> bytes:
    """A file's bytes, handed over: a list holding them is emptied, so that
    the parser that takes them holds the only reference and frees them by
    dropping it. A plain argument stays referenced by the call."""
    return data.pop() if isinstance(data, list) else data


def _decode(path: str | Path, data: bytes) -> str:
    """The file as text, one leading BOM dropped; an invalid byte is a
    ParseError naming its offset in the file."""
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: invalid byte at offset {exc.start}") from None


def _read_json(path: str | Path, data: bytes, kind: str, keys: tuple[str, str]) -> dict:
    """The object of a ``kind`` file, which must hold ``keys``: the same
    object from :func:`_members` in C passes, or else from json.loads."""
    with suppress(ValueError):
        return _members(data, keys)
    text = _decode(path, data)  # its ParseError is no JSON error
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past int()'s digit limit
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict) or not doc.keys() >= set(keys):
        raise ParseError(f"{path}: {kind} file needs '{keys[0]}' and '{keys[1]}'")
    return doc


def _index_pairs(text: bytes) -> np.ndarray:
    """The JSON list of [i, j] pairs ``text`` as a (k, 2) int64 array, if
    every i and j is a positive decimal integer below 2^63 - 1."""
    # without spaces the text is "[[i,j],...,[i,j]]": its bytes other than
    # digits are these brackets and commas, with digits in each slot only
    compact = np.frombuffer(text.translate(None, b" \n"), np.uint8)
    at = np.flatnonzero((compact < 48) | (compact > 57))
    k = (at.size - 1) // 4
    filled = (np.diff(at[: 4 * k + 1]) > 1).reshape(k, 4)
    with warnings.catch_warnings():  # numpy 1 warns where it stops early
        warnings.simplefilter("ignore", DeprecationWarning)
        flat = text.translate(bytes.maketrans(b"[]", b"  ")) if k else b""
        pairs = np.fromstring(flat, np.int64, sep=",").reshape(-1, 2)
    # the parse stops at two tokens with only spaces between them; a token
    # past int64 reads its largest value; a 0 that leads a token, or is one,
    # is a digit that its value does not count
    top = int(pairs.max(initial=0))
    digits = sum(np.count_nonzero(pairs >= 10**p) for p in range(len(str(top))))
    layout = compact[at].tobytes() == b"[" + (b"[,]," * k)[:-1] + b"]" and (filled == (0, 1, 1, 0)).all()
    if not layout or len(pairs) != k or top == np.iinfo(np.int64).max or digits != compact.size - at.size:
        raise ValueError("not a list of index pairs")
    return pairs


_SPACE = rb"[ \n]*"
_PAIRS = (rb"\[.*\]", _index_pairs)
_NUMS = (rb"\[[-+.0-9eE \n,]*\]", lambda text: json.JSONDecoder().decode(text.decode()))
_MEMBERS = {"edges": _PAIRS, "entries": _PAIRS, "values": _NUMS, "deltas": _NUMS, "n": (rb"[1-9][0-9]{0,17}", int)}
_MEMBERS["basis"] = (rb"\{.*\}", lambda text: _members(text, ("entries",), ("entries", "values")))


def _members(data: bytes, *keysets: tuple[str, ...]) -> dict:
    """The JSON object ``data`` with the keys of one of ``keysets``, in any
    order, spaces and newlines between its tokens: one pattern per key order
    (cached by re) splits it, and each value is read by its ``_MEMBERS``
    reader. Any other text is a ValueError."""
    comma = _SPACE + b"," + _SPACE
    for keys in chain.from_iterable(map(permutations, keysets)):
        members = comma.join(b'"%s"%s:%s(%s)' % (k.encode(), _SPACE, _SPACE, _MEMBERS[k][0]) for k in keys)
        if match := re.fullmatch(b"%s\\{%s%s%s\\}%s" % (_SPACE, _SPACE, members, _SPACE, _SPACE), data, re.DOTALL):
            return {key: _MEMBERS[key][1](text) for key, text in zip(keys, match.groups())}
    raise ValueError("another layout")


def _int_pairs(path: str | Path, pairs: object, what: str, build):
    """``build(pairs)`` for a file's list of [i, j] pairs; an item that is
    not a pair of integers is a ParseError naming the path."""
    if not isinstance(pairs, (list, np.ndarray)):
        raise ParseError(f"{path}: {what} must be a list of [i, j] pairs")
    try:
        return build(pairs)
    except BadParamsError as exc:
        raise ParseError(f"{path}: {exc}") from None


def load_graph(path: str | Path) -> MarketGraph:
    """Read a graph file: {"n": int, "edges": [[i, j], ...]}, 1-based."""
    return _graph_of(path, [_read_bytes(path)])


def _graph_of(path: str | Path, data: bytes | list[bytes]) -> MarketGraph:
    """:func:`load_graph` of the file's bytes ``data`` (see :func:`_taken`)."""
    doc = _read_json(path, _taken(data), "graph", ("n", "edges"))
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParseError(f"{path}: 'n' must be an integer")
    return _int_pairs(path, doc["edges"], "edges", lambda edges: new_graph(n, edges))


def save_graph(path: str | Path, g: MarketGraph) -> None:
    """Write a graph file, its edges ascending, a loop at v as [v, v]."""
    loops = g._loop_array  # the edges are sorted; a loop at v goes ahead of the edges from v
    order = np.insert(np.arange(g._lo.size), np.searchsorted(g._lo, loops), 2 * g._lo.size + np.arange(loops.size))
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_json_chunks({"n": g.n, "edges": _Rows(g._edge_ends, range(1, g.n + 1), order)}))
        fh.write("\n")


class RatesFile(_Record):
    """Parsed rates CSV: the matrix, the label table, and which directed
    entries were filled in as exact reciprocals rather than quoted.

    The filled entries' 0-based ends are a (2, k) array, ``_filled_ends``,
    from which the loader builds ``filled`` when it is first read, as
    :attr:`MarketGraph.edges` is built, and the labels from its table
    ``_names``, "1" to "n" where that is empty; a file constructed directly
    stores both as given. Files compare by labels, graph, rates and fills."""

    matrix: RateMatrix
    labels: tuple[str, ...]
    filled: tuple[tuple[int, int], ...]

    _KEY = ("labels", "matrix.graph", "matrix.values", "_filled_ends")

    def __post_init__(self) -> None:
        _set_fields(self, _filled_ends=np.array(self.filled, np.int64).reshape(-1, 2).T - 1, _names=self.labels)

    @cached_property
    def labels(self) -> tuple[str, ...]:
        return self._names or tuple(map(str, range(1, self.matrix.n + 1)))

    @cached_property
    def filled(self) -> tuple[tuple[int, int], ...]:
        return tuple(zip(*np.add(self._filled_ends, 1).tolist()))

    def index_of(self, label: str) -> int:
        try:  # without names the labels are "1" to "n"; int() refuses a label past its digit limit
            if not self._names and label.isascii() and label.isdigit() and label[0] != "0" and int(label) <= self.matrix.n:
                return int(label)
            return self.labels.index(label) + 1
        except ValueError:
            raise ParseError(f"unknown label {label!r}") from None


def _quote_rows(path: str | Path, data: bytes) -> Iterator[tuple[int, str, str, str]]:
    """Each quote row's line and its stripped src, dst and rate text, in one
    walk of the csv reader. Rows end at CR, LF or CRLF outside quotes; blank
    ones are skipped, and the first row of another width, with an empty src
    or dst, or rejected by csv is an error."""
    import csv
    _decode(path, data)  # a byte that is not UTF-8 is the first error; the reader decodes a chunk at a time
    reader = csv.reader(TextIOWrapper(BytesIO(data), "utf-8-sig", newline=""))
    try:
        if [c.strip().lower() for c in next(reader, [])] != ["src", "dst", "rate"]:
            raise ParseError(f"{path}: first line must be the header 'src,dst,rate'")
        start = reader.line_num + 1  # the line the next row starts on
        for row in reader:
            if len(row) == 3 and (a := row[0].strip()) and (b := row[1].strip()):
                yield start, a, b, row[2].strip()
            elif "".join(row).strip():  # not blank
                fault = "empty src or dst" if len(row) == 3 else f"expected 3 columns, got {len(row)}"
                raise ParseError(f"{path}:{start}: {fault}")
            start = reader.line_num + 1
    except csv.Error as exc:  # a field past csv's size limit, say
        raise ParseError(f"{path}:{reader.line_num}: {exc}") from None


def _rate_columns(path: str | Path, data: bytes) -> tuple[list[str], list[str], np.ndarray, list[int]]:
    """The src and dst of each of :func:`_quote_rows` (one string per label)
    and its rate; a text that is not a number reads 1.0 and its position is
    listed."""
    names, src, dst, rates, junk = {}, [], [], [], []
    for _, a, b, text in _quote_rows(path, data):
        src.append(names.setdefault(a, a))
        dst.append(names.setdefault(b, b))
        try:
            rates.append(float(text))
        except ValueError:  # not a number
            junk.append(len(rates))
            rates.append(1.0)
    if not rates:
        raise ParseError(f"{path}: no rate rows")
    return src, dst, np.array(rates), junk


def _bad_rates(rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the rates that are not positive and finite, and of the
    positive rates so small that their reciprocal overflows."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        positive = np.isfinite(rates) & (rates > 0.0)
        return ~positive, positive & ~np.isfinite(1.0 / rates)


def _key_width(rows: int) -> int:
    """The quote keys' width on a sheet of ``rows`` rows: above every index it
    may name, and 2 width^2 fits in int64 below ~10^9 rows."""
    return 2 * rows + 1


def _quote_keys(width: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The keys (lo * width + hi) * 2, plus 1 for hi -> lo, of the quotes of
    the 1-based i and j over their 0-based goods, so that a pair's quotes are
    adjacent, lo -> hi first, as in every written sheet."""
    return (np.minimum(i, j) * width + np.maximum(i, j) - (width + 1)) * 2 + (i > j)


def _key_order(keys: np.ndarray, ascending: bool) -> tuple[np.ndarray | slice, np.ndarray]:
    """Sort ``keys`` in place unless strictly ``ascending``; the order that
    sorted them, and the rows that repeat an earlier row's key."""
    if ascending:
        return slice(None), np.empty(0, np.intp)
    order = np.argsort(keys, kind="stable")
    keys.sort()  # the same values as a stable sort
    return order, order[1:][keys[1:] == keys[:-1]]


def _canonical_quotes(held: list[bytes]) -> _Quotes | None:
    """:func:`_tokenized_quotes` of a canonical file ``held[0]`` in C passes,
    its goods counted; None for any other file and every file the tokenizer
    must reject. The key and rate columns, allocated from the count of
    newlines, are filled a block of rows at a time by :func:`_quote_block`;
    ``held`` is emptied once no screen can send the file to the tokenizer."""
    data = held[0]
    start = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    lo = start + len(_CANONICAL_HEADER)
    if not data.startswith(_CANONICAL_HEADER, start) or data[lo : lo + 1] in (b"", b"\n"):
        return None  # no first row
    lines = np.frombuffer(data, np.uint8)
    count = sum(int(np.count_nonzero(lines[k : k + _SCAN] == 10)) for k in range(lo, len(data), _SCAN)) + (data[-1] != 10)
    keys, rates = np.empty(count, np.int64), np.empty(count)
    # as in the label table, the indices must name every good up to the
    # largest; past twice the row count some surely do not, so no wider
    # index is read, and no larger one is kept
    wide = len(str(width := _key_width(count)))  # the digits of 2 * count: an odd width is no power of 10
    quoted, top, row, ascending = np.zeros(1, bool), 0, 0, True
    while lo < len(data):
        hi = data.find(b"\n", lo + _SCAN) + 1 or len(data)
        if (block := _quote_block(data, lo, hi, wide)) is None:
            return None
        i, j, rates[row : row + len(i)] = block
        top = max(top, i.max(), j.max())
        if top >= width or any(mask.any() for mask in _bad_rates(block[2])):
            return None
        quoted.resize(top + 1, refcheck=False)  # zeros appended
        quoted[i] = quoted[j] = True
        keys[row : row + len(i)] = key = _quote_keys(width, i, j)
        ascending = ascending and (key[1:] > key[:-1]).all() and (row == 0 or key[0] > keys[row - 1])
        row, lo = row + len(i), hi
        del block, i, j, key
    order, repeats = _key_order(keys, ascending)
    if not quoted[1 : top + 1].all() or repeats.size:
        return None
    held.clear()
    del data, lines
    return (), int(top), keys, rates[order]


def _quote_block(data: bytes, lo: int, hi: int, wide: int) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The src, dst and rate columns of the whole rows ``data[lo:hi]``, or
    None if a row is not canonical or an index is wider than ``wide``.

    The bytes other than digits, the marks, place every field, so its width
    is known before one np.fromstring pass over one copy of the rows reads
    each field as a run of at most _RUN digits, which it cannot saturate.
    The marks reshape to (rows, 4) where every row's are ",,.\n", as in each
    written sheet, and are searched row by row in any other block. A rate
    a.b with those marks and 1 to _RUN digits in each part, where a long
    double is exact (see _EXACT_QUOTIENT), gets a comma over its point and
    reads as two integers, N = a 10^f + b, f the digits of b; any other rate
    is written as one field, 0. Where N < 10^_RUN, N and 10^f are exact in
    the long double: their quotient v is rounded once, and x = float64(v)
    once more. Rounding is monotone and every float64 midpoint is a long
    double, so v is on the same side of each midpoint as N / 10^f, or on
    one: x is float()'s value unless v is a midpoint, where v - x is half
    the gap to x's neighbour and 2v - x (exact) is that neighbour, a float64
    other than x. Such a rate, and every other, goes to float() on its own
    bytes."""
    buf = np.frombuffer(data, np.uint8, hi - lo, lo)
    at = np.flatnonzero((buf < 48) | (buf > 57))
    kind = buf[at]
    if data[hi - 1] == 10 and kind.size % 4 == 0 and (kind.view(np.uint32) == _PLAIN).all():
        c1, c2, point, end = at.reshape(-1, 4).T  # each row's two commas, its point and its end
        fast = True  # every row's marks are ",,.\n"
    else:
        if data[hi - 1] != 10:  # the file's last row, without its newline
            at, kind = np.append(at, hi - lo), np.append(kind, np.uint8(10))
        # each row's marks: its two commas, its only ones, then its rate's, then its end
        end = np.flatnonzero(kind == 10)
        first = np.concatenate([[0], end[:-1] + 1])
        if kind.tobytes().translate(None, b",\n.eE+-") or (end - first < 2).any():
            return None
        if np.count_nonzero(kind == 44) != 2 * end.size or (kind[first] != 44).any() or (kind[first + 1] != 44).any():
            return None
        fast = (end - first == 3) & (kind[first + 2] == 46)  # the rows whose marks are ",,.\n"
        c1, c2, point, end = at[first], at[first + 1], at[first + 2], at[end]  # a row with no point: its end
        del first
    del at, kind
    start = np.concatenate([[0], end[:-1] + 1])
    widths = np.concatenate([c1 - start, c2 - c1 - 1])  # the indices': 1 to wide digits, no leading 0
    if widths.min() < 1 or widths.max() > wide or (buf[start] == 48).any() or (buf[c1 + 1] == 48).any():
        return None
    if (end - c2 < 2).any():  # an empty rate
        return None
    whole, f = point - c2 - 1, end - point - 1  # the digits of a and of b
    fast = fast & (np.minimum(whole, f) > 0) & (np.maximum(whole, f) <= _RUN) & _EXACT_QUOTIENT
    # the rows' fields parted by commas and spaces, then a NUL to end the last, as in bytes
    text = np.append(buf[: end[-1]], np.uint8(0))
    text[end[:-1]] = 44
    every = fast.all()
    text[point if every else point[fast]] = 44
    del c1, start, widths, whole, point
    if not every:  # any other rate: a 0, then spaces
        text[c2[~fast] + 1] = 48
        text[_spans((c2 + 2)[~fast], (end - c2 - 2)[~fast])] = 32
        f[~fast] = 0
    c2, end = c2.copy(), end.copy()  # the rates' ends, kept once the marks are freed
    fields = np.fromstring(text[:-1], np.int64, sep=",")
    del text
    if every:
        i, j, n, b = fields.reshape(-1, 4).T
    else:  # each row's fields from its first: four in a fast row, three in any other, the last its 0
        first = np.cumsum(3 + fast) - 3 - fast
        i, j, n, b = fields[first], fields[first + 1], fields[first + 2], fields[first + 2 + fast]
        del fields, first
    fast &= n < _TENS[_RUN - f]  # so that N < 10^_RUN; any other N is not read
    n *= _TENS[f]
    n += b
    del b
    # N / 10^f: 10^f, and each float64 compared with v, taken to a long double exactly
    v = n.astype(np.longdouble)
    v /= _TENS[f]
    del f
    rates = v.astype(np.float64)
    v += v - rates  # 2v - x, exact; x itself only where v is x
    slow = np.flatnonzero(~fast | (v != rates) & (v.astype(np.float64) == v))
    try:
        rates[slow] = [float(data[lo + a + 1 : lo + b]) for a, b in zip(c2[slow].tolist(), end[slow].tolist())]
    except ValueError:  # not a number
        return None
    return i, j, rates


def _tokenized_quotes(path: str | Path, data: bytes) -> _Quotes:
    """The :data:`_Quotes` of a file read through the csv tokenizer, which
    raises every error of the rows, the labels and the rates."""
    src, dst, rates, junk = _rate_columns(path, data)
    labels, to_index = _label_table(path, {*src, *dst})
    i, j = (np.fromiter(map(to_index, column), np.int64, len(column)) for column in (src, dst))
    keys = _quote_keys(_key_width(len(i)), i, j)
    order, repeats = _key_order(keys, (keys[1:] > keys[:-1]).all())
    not_positive, tiny = _bad_rates(rates)
    bad = not_positive | tiny
    bad[junk] = bad[repeats] = True
    if bad.any():
        k = int(np.argmax(bad))
        line, a, b, text = next(islice(_quote_rows(path, data), k, None))  # walked again to name it
        where = f"{path}:{line}"
        if k in junk:
            raise ParseError(f"{where}: rate {text!r} is not a number")
        if not_positive[k]:
            raise ParseError(f"{where}: rate must be positive and finite, got {text}")
        if tiny[k]:
            raise ParseError(f"{where}: rate {text} is too small: its reciprocal overflows")
        raise ParseError(f"{where}: duplicate quote {a}->{b}")
    return () if to_index is int else labels, len(labels), keys, rates[order]


def _label_table(path: str | Path, tokens: set[str]) -> tuple[tuple[str, ...], Callable[[str], int]]:
    if all(t.isascii() and t.isdigit() for t in tokens):
        if any(t.startswith("0") for t in tokens):
            raise ParseError(f"{path}: integer vertex indices are 1-based")
        # an index beyond the count of distinct tokens names a good never
        # quoted: say so before a label per index, or int() of a longer token
        if max(map(len, tokens)) > len(str(len(tokens))) or (n := max(map(int, tokens))) > len(tokens):
            raise NotConnectedError(f"{path}: the quoted pairs do not connect every good")
        return tuple(map(str, range(1, n + 1))), int
    labels = tuple(sorted(tokens))
    position = {lab: k + 1 for k, lab in enumerate(labels)}
    return labels, position.__getitem__


def load_rates(path: str | Path, tol: float = DEFAULT_TOL) -> RatesFile:
    """Parse a rates CSV into a rate matrix over the graph its pairs imply.

    Missing reciprocals are filled as exact inverses and flagged. Explicitly
    quoted reciprocals whose product strays from 1 beyond ``tol`` (log
    domain) raise :class:`~arbx.errors.ReciprocalConflictError`; a duplicated
    directed row is a :class:`~arbx.errors.ParseError`. A disconnected
    quote graph raises :class:`~arbx.errors.NotConnectedError` before any
    rate is stored. Memory is O(n + quotes): no n x n array is built.

    Errors come in a fixed order: the row layout, the label table, then the
    earliest line with a bad rate or a repeated quote (the rate first on one
    line), then the first conflicting pair in ascending (i, j) order, then
    connectivity. A bad rate is one that is not a positive finite number or
    whose reciprocal overflows. Each check past the row layout runs over
    whole columns.

    A canonical file (see ``_CANONICAL_HEADER``) whose rows pass the checks
    up to the bad rates is parsed in C passes, unsorted if in key order;
    every other file goes through the csv tokenizer, which raises those
    errors. Both give the same result, drifts judged as by math.log.
    """
    require_tol(tol)
    return _rates_of(path, [_read_bytes(path)], tol)


def _rates_of(path: str | Path, held: list[bytes], tol: float) -> RatesFile:
    """:func:`load_rates` of the file's bytes ``held`` (see :func:`_taken`),
    ``tol`` checked. Each array is dropped once read: the bytes once parsed,
    then the quote keys, so that the graph is searched beside only the edge
    values, the filled entries and a labelled file's label table."""
    names, n, keys, rates = _canonical_quotes(held) or _tokenized_quotes(path, held.pop())
    width = _key_width(len(keys))

    # the quotes by pair (lo, hi) ascending; a pair quoted both ways is its
    # lo -> hi quote followed by its hi -> lo one
    down = (keys & 1).astype(bool)
    keys >>= 1  # the pair's lo * width + hi
    first = np.ones(len(keys), bool)
    first[1:] = keys[1:] != keys[:-1]
    k = _first_conflict(rates, first, tol)
    if k is not None:
        a, b = (names[v] if names else str(v + 1) for v in divmod(int(keys[k]), width))
        raise ReciprocalConflictError(
            f"{path}: quotes {a}->{b} and {b}->{a} multiply to {rates.item(k - 1) * rates.item(k):.12g}, not 1"
        )

    loop = keys % (width + 1) == 0  # lo == hi
    edge = first & ~loop
    graph = MarketGraph._of_arrays(n, *np.divmod(keys[edge], width), keys[loop] // (width + 1))
    # the quotes alone in their pair, each filled by its reciprocal, in the
    # order of the quotes they complete, by (src, dst)
    lone = edge & np.append(first[1:], True)
    lo, hi = np.divmod(keys[lone], width)
    del keys, first
    # each quote's directed edge id: pair k's lo -> hi quote is id k, its
    # hi -> lo quote E + k, and the loop at loops[l] 2E + l
    e = graph._lo.size
    ids = np.cumsum(edge) - 1
    np.add(ids, e, out=ids, where=down)
    ids[loop] = 2 * e + np.arange(graph._loop_array.size)
    values = np.empty(graph._edge_count)
    values[ids] = rates
    ids, down, rates = ids[lone], down[lone], rates[lone]
    values[ids + np.where(down, -e, e)] = 1.0 / rates
    src, dst = np.where(down, hi, lo), np.where(down, lo, hi)
    order = np.argsort(src * n + dst)
    filled = np.stack((dst[order], src[order]))
    del loop, edge, lone, ids, lo, hi, down, rates, src, dst, order
    if not is_connected(graph):
        raise NotConnectedError(f"{path}: the quoted pairs do not connect every good")
    matrix = RateMatrix._of(graph, values)
    return _set_fields(object.__new__(RatesFile), matrix=matrix, _filled_ends=filled, _names=names)


def _first_conflict(rates: np.ndarray, first: np.ndarray, tol: float) -> int | None:
    """The position of the second quote of the first pair quoted both ways
    whose quotes' logs add up to more than ``tol`` in magnitude, as math.log
    sums them (see ``_LOG_BAND``), or None. Four arrays of pairs are held."""
    both = np.flatnonzero(~first)
    there, home = np.log(rates[both - 1]), np.log(rates[both])
    drift = there + home
    np.abs(drift, out=drift)
    band = np.add(np.abs(there, out=there), np.abs(home, out=home), out=there)
    band *= _LOG_BAND
    near = np.flatnonzero(np.abs(np.subtract(drift, tol, out=home), out=home) <= band)
    drift[near] = [abs(math.log(a) + math.log(b)) for a, b in zip(*rates[[both[near] - 1, both[near]]].tolist())]
    conflict = np.flatnonzero(drift > tol)
    return int(both[conflict[0]]) if conflict.size else None


def rate_rows(
    values: np.ndarray, graph: MarketGraph, labels: Sequence[str]
) -> list[list[object]]:
    """Every edge's quotes as [src, dst, rate] rows: both directions per
    pair, loops once, in ascending edge order. ``values`` holds one rate per
    directed edge in edge-id order, like :attr:`RateMatrix.values`."""
    return _rate_rows(values, graph, labels).tolist()


def _rate_rows(values: np.ndarray, graph: MarketGraph, labels: Sequence[str]) -> _Rows:
    """The rows of :func:`rate_rows` as a block over the graph's arrays."""
    e, loops = graph._lo.size, graph._loop_array
    # pair k's quotes are ids k and E + k; a loop at v goes ahead of the pairs from v
    pairs = np.arange(2 * e) >> 1
    pairs[1::2] += e
    order = np.insert(pairs, 2 * np.searchsorted(graph._lo, loops), 2 * e + np.arange(loops.size))
    return _Rows((*graph._edge_ends, values), labels, order)


def save_rates(path: str | Path, r: RateMatrix, labels: Sequence[str] | None = None) -> None:
    """Write every edge's quotes as CSV: both directions per pair, loops once,
    rendered from the rate arrays a block at a time and one table of label
    cells, a label as the csv writer writes it (without labels, each good's
    index) and a rate as its repr (see :mod:`arbx._repr`)."""
    from ._repr import rate_lines
    with open(path, "wb") as fh:
        fh.write(b"src,dst,rate\n")
        fh.writelines(rate_lines(_rate_rows(r.values, r.graph, labels or range(1, r.n + 1)), 2 * _BLOCK))


def load_basis(
    path: str | Path, graph: MarketGraph, *, multiplicative: bool = False
) -> BasisAssignment:
    """Read a basis file: {"entries": [[i, j], ...], "values": [...]}.

    Values are log-domain by default; ``multiplicative`` converts positive
    rates on load.
    """
    return _basis_of(path, [_read_bytes(path)], graph, multiplicative)


def _basis_of(path: str | Path, data: bytes | list[bytes], graph: MarketGraph, multiplicative: bool) -> BasisAssignment:
    """:func:`load_basis` of the file's bytes ``data`` (see :func:`_taken`)."""
    from .basis import BasisAssignment, BasisSpec
    doc = _read_json(path, _taken(data), "basis", ("entries", "values"))
    spec = _int_pairs(path, doc["entries"], "entries", lambda e: BasisSpec(graph=graph, entries=e))
    values = _numbers(path, doc, "values", spec, "entries")
    if multiplicative:
        if any(not math.isfinite(v) or v <= 0.0 for v in values):
            raise ParseError(f"{path}: multiplicative basis values must be positive")
        values = [math.log(v) for v in values]
    return BasisAssignment(spec=spec, values=tuple(values))


def load_perturbation(path: str | Path, graph: MarketGraph) -> PerturbationVector:
    """Read a perturbation file: {"basis": {"entries": [...]}, "deltas": [...]}.

    Deltas are log-domain. The embedded basis may carry "values" (the basis
    file shape); they are not needed here and are ignored.
    """
    return _perturbation_of(path, [_read_bytes(path)], graph)


def _perturbation_of(path: str | Path, data: bytes | list[bytes], graph: MarketGraph) -> PerturbationVector:
    """:func:`load_perturbation` of the file's bytes ``data`` (see :func:`_taken`)."""
    from .basis import BasisSpec
    from .dynamics import PerturbationVector
    doc = _read_json(path, _taken(data), "perturbation", ("basis", "deltas"))
    basis = doc["basis"]
    if not isinstance(basis, dict) or "entries" not in basis:
        raise ParseError(f"{path}: 'basis' needs 'entries'")
    spec = _int_pairs(path, basis["entries"], "basis entries", lambda e: BasisSpec(graph=graph, entries=e))
    deltas = _numbers(path, doc, "deltas", spec, "basis entries")
    return PerturbationVector(spec=spec, deltas=tuple(deltas))


def _numbers(path: str | Path, doc: dict, key: str, spec: BasisSpec, entries: str) -> list[float]:
    """``doc[key]``, a list of numbers but not bools, one per entry of
    ``spec``, as floats; ``entries`` names the entries in the length error."""
    raw = doc[key]
    if not isinstance(raw, list) or not set(map(type, raw)) <= {int, float}:  # a JSON bool is neither
        raise ParseError(f"{path}: '{key}' must be a list of numbers")
    if len(raw) != spec.size:
        raise ParseError(f"{path}: {spec.size} {entries} but {len(raw)} {key}")
    return list(map(float, raw))


class RunReport(_Record, frozen=False):
    """Uniform machine- and human-readable record of one CLI run."""

    command: str
    verdict: str  # ok | violation | error
    witness: ArbitrageWitness | None
    metrics: dict[str, float]
    inputs: dict[str, str]
    labels: tuple[str, ...]
    data: dict[str, object]

    def __post_init__(self) -> None:
        if self.verdict == "violation" and self.witness is None:
            raise ValueError("violation reports must carry a witness")
        for key, val in self.metrics.items():
            if val < 0:
                raise ValueError(f"metric {key} must be non-negative")

    def to_dict(self) -> dict:
        """The report as plain JSON values, :meth:`to_json` read back; a
        float beyond the float range (JSON has no infinity) is None."""
        return json.loads(self.to_json())

    def _doc(self) -> dict:
        # the report's JSON document, before ±inf is written as null
        w = self.witness
        witness = None if w is None else {
            "cycle": list(w.cycle),
            "log_gain": w.log_gain,
            # JSON has no infinity; null marks a gain beyond the float range
            "multiplicative_gain": w.multiplicative_gain if math.isfinite(w.multiplicative_gain) else None,
        }
        return {
            "command": self.command,
            "verdict": self.verdict,
            "witness": witness,
            "metrics": dict(self.metrics),
            "inputs": dict(self.inputs),
            "labels": self.labels,
            "data": self.data,
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), indent=2, sort_keys=True)``."""
        return "".join(self._chunks("json"))

    def to_text(self) -> str:
        return "".join(self._chunks("text"))

    def _chunks(self, fmt: str) -> Iterator[str]:
        """The text of :meth:`to_json` (``fmt`` "json") or :meth:`to_text`
        in pieces, row blocks, flat lists and labels one block at a time."""
        if fmt == "json":
            yield from _json_chunks(self._doc(), nulls=True)
            return
        yield f"arbx {self.command}\nverdict: {self.verdict}"
        if (w := self.witness) is not None:
            path = " -> ".join(_cell(self.labels[v - 1]) if 1 <= v <= len(self.labels) else str(v) for v in w.cycle)
            yield f"\nwitness: {path}\n  log gain: {w.log_gain:.12g}\n  multiplicative gain: {w.multiplicative_gain:.12g}"
        for key, value in self.data.items():
            if type(value) is _Rows:
                yield f"\n{key}:"
                yield from value._render(lambda labels: list(map(_cell, labels)), "\n  ", ",", "", partial(map, _num))
            elif not isinstance(value, list):
                yield f"\n{key}: {_num(value)}"
            elif all(isinstance(item, list) for item in value):
                yield f"\n{key}:" + "".join("\n  " + ",".join(map(_cell, item)) for item in value)
            else:
                yield from _spaced(key, map(_cell, value))
        yield from _spaced("labels", (f"{_cell(lab)}={k}" for k, lab in enumerate(self.labels, 1)))
        yield from _spaced("metrics", (f"{k}={_num(v)}" for k, v in sorted(self.metrics.items())))
        yield from _spaced("inputs", (f"{k}={v}" for k, v in sorted(self.inputs.items())))


def _inf_to_none(value: object) -> object:
    # NaN is left as it is: it marks a fault, not a value past the float range.
    # A tuple comes back as a list, which JSON writes the same way.
    if isinstance(value, float):
        return None if math.isinf(value) else value
    if isinstance(value, (list, tuple)):
        return [_inf_to_none(item) for item in value]
    if isinstance(value, dict):
        return {k: _inf_to_none(item) for k, item in value.items()}
    return value


def _num(v: object) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _cell(v: object) -> str:
    """A label, row cell or list item of the text report: a number by
    :func:`_num`, any other value as its str, as it is or, where that holds a
    space, a comma, "=", a double quote, CR or LF, as a CSV cell (in double
    quotes, each inner one doubled), so that a dict or a list is one cell."""
    if isinstance(v, (int, float)):
        return _num(v)
    text = str(v)
    return '"' + text.replace('"', '""') + '"' if re.search('[ ,="\r\n]', text) else text


def _spaced(key: str, texts: Iterator[str]) -> Iterator[str]:
    """``key: `` and ``texts`` parted by spaces, _BLOCK at a time; nothing without texts."""
    lead = f"\n{key}:"
    while block := list(islice(texts, _BLOCK)):
        yield f"{lead} " + " ".join(block)
        lead = ""
