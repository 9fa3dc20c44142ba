"""File formats for the CLI (graph JSON, rates CSV, basis and perturbation
JSON) plus the run-report record every command emits.

Rates CSV convention: header ``src,dst,rate``; a row means one unit of
``src`` buys ``rate`` units of ``dst``, which is matrix entry (src, dst).
Worked example: the row ``EUR,USD,1.25`` sets entry (EUR, USD) = 1.25, the
price of one euro in dollars. Columns may use 1-based integer indices or
arbitrary string labels; labels get indices in sorted order and the table is
echoed in every report.
"""

from __future__ import annotations

import codecs
import csv
import hashlib
import json
import math
import re
from dataclasses import dataclass
from io import BytesIO
from itertools import chain, compress, islice
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from .basis import BasisAssignment, BasisSpec
from .dynamics import PerturbationVector
from .errors import BadParamsError, NotConnectedError, ParseError, ReciprocalConflictError
from .exchange import DEFAULT_TOL, ArbitrageWitness, RateMatrix, require_tol
from .graph import MarketGraph, is_connected, new_graph

_INDEX_TOKEN = re.compile(r"[1-9][0-9]*")
_DIGIT_TOKEN = re.compile(r"[0-9]+")

# A canonical rates file: the bare header (a BOM allowed), then one or more
# rows of two 1-based indices and a plain decimal rate, each ending in "\n"
# but for the last; no spaces, quotes, blank rows or "\r". Such a file is
# parsed in one np.loadtxt pass; any other goes through the csv tokenizer.
# The rows are checked by searching for a newline that starts no row (the
# end of the file aside): a search holds no state per row, where one match
# over the whole file would keep a backtracking entry for every row.
_CANONICAL_HEADER = b"src,dst,rate\n"
_NOT_A_ROW = re.compile(
    rb"\n(?![1-9][0-9]*,[1-9][0-9]*,(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?(?:\n|\Z)|\Z)"
)
_QUOTE_ROW = np.dtype([("src", np.int64), ("dst", np.int64), ("rate", np.float64)])

# the label table, the quote keys of _key_order ascending, the rates in that order
_Quotes = tuple[tuple[str, ...], np.ndarray, np.ndarray]


# json's C encoder, the one json.dumps takes only without an indent. Its item
# separator "\x1f" is escaped inside every JSON string, so in its output it
# marks exactly the boundaries between items.
_FLAT = json.JSONEncoder(separators=("\x1f", ": ")).encode
_SCALARS = frozenset({str, int, float, bool, type(None)})


def _json_text(value: object, indent: str = "") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, with
    ``indent`` before every line but the first.

    A flat list, or a list of non-empty flat rows, is encoded in one call of
    the C encoder and laid out by replacing its separators; a dict with
    string keys and every other list recurse; any other value is left to
    json.dumps itself."""
    deeper = indent + "  "
    if type(value) is dict and set(map(type, value)) <= {str}:
        if not value:
            return "{}"
        items = (f"{deeper}{_FLAT(k)}: {_json_text(value[k], deeper)}" for k in sorted(value))
        return "{\n" + ",\n".join(items) + f"\n{indent}}}"
    if type(value) in (list, tuple) and value:
        types = set(map(type, value))
        if types <= _SCALARS:
            body = _FLAT(value)[1:-1].replace("\x1f", ",\n" + deeper)
        elif types <= {list, tuple} and all(value) and set(map(type, chain.from_iterable(value))) <= _SCALARS:
            # no scalar ends in "]" or starts with "[", so "]\x1f[" only
            # parts two rows; "\x1e", escaped in strings too, holds its place
            cell = deeper + "  "
            rows = _FLAT(value)[2:-2].replace("]\x1f[", "\x1e").replace("\x1f", ",\n" + cell)
            body = "[\n" + cell + rows.replace("\x1e", f"\n{deeper}],\n{deeper}[\n{cell}") + f"\n{deeper}]"
        else:
            body = f",\n{deeper}".join(_json_text(item, deeper) for item in value)
        return f"[\n{deeper}{body}\n{indent}]"
    if type(value) in _SCALARS:
        return _FLAT(value)
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", "\n" + indent)


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def file_digest(path: str | Path) -> str:
    return _digest(Path(path).read_bytes())


def _read_bytes(path: str | Path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _decode(path: str | Path, data: bytes) -> str:
    """The file as text, one leading BOM dropped; an invalid byte is a
    ParseError naming its offset in the file."""
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: invalid byte at offset {exc.start}") from None


def _read_json(path: str | Path, data: bytes) -> object:
    text = _decode(path, data)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc


def _int_pairs(path: str | Path, pairs: object, what: str, build):
    """``build(pairs)`` for a file's list of [i, j] pairs; an item that is
    not a pair of integers is a ParseError naming the path."""
    if not isinstance(pairs, list):
        raise ParseError(f"{path}: {what} must be a list of [i, j] pairs")
    try:
        return build(pairs)
    except BadParamsError as exc:
        raise ParseError(f"{path}: {exc}") from None


def load_graph(path: str | Path) -> MarketGraph:
    """Read a graph file: {"n": int, "edges": [[i, j], ...]}, 1-based."""
    return _graph_of(path, _read_bytes(path))


def _graph_of(path: str | Path, data: bytes) -> MarketGraph:
    """:func:`load_graph` of the file's bytes ``data``."""
    doc = _read_json(path, data)
    if not isinstance(doc, dict) or "n" not in doc or "edges" not in doc:
        raise ParseError(f"{path}: graph file needs 'n' and 'edges'")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParseError(f"{path}: 'n' must be an integer")
    return _int_pairs(path, doc["edges"], "edges", lambda edges: new_graph(n, edges))


def save_graph(path: str | Path, g: MarketGraph) -> None:
    """Write a graph file, its edges ascending, a loop at v as [v, v]."""
    loops = g._loop_array
    pairs = np.column_stack((np.concatenate([g._lo, loops]), np.concatenate([g._hi, loops])))
    if loops.size:  # the simple edges are sorted; a loop at v goes ahead of v's
        pairs = pairs[np.lexsort(pairs.T[::-1])]
    doc = {"n": g.n, "edges": (pairs + 1).tolist()}
    Path(path).write_text(_json_text(doc) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class RatesFile:
    """Parsed rates CSV: the matrix, the label table, and which directed
    entries were filled in as exact reciprocals rather than quoted."""

    matrix: RateMatrix
    labels: tuple[str, ...]
    filled: tuple[tuple[int, int], ...]

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label) + 1
        except ValueError:
            raise ParseError(f"unknown label {label!r}") from None


def _first_bad_row(path: str | Path, lines: np.ndarray, quotes: list[list[str]]) -> None:
    """Raise for the first quote row of another width or with an empty src
    or dst; run only once a column check has found one."""
    for lineno, row in zip(lines.tolist(), quotes):
        if len(row) != 3:
            raise ParseError(f"{path}:{lineno}: expected 3 columns, got {len(row)}")
        if not row[0].strip() or not row[1].strip():
            raise ParseError(f"{path}:{lineno}: empty src or dst")


def _rate_columns(
    path: str | Path, data: bytes
) -> tuple[np.ndarray, list[str], list[str], list[str]]:
    """The quote rows as stripped src, dst and rate columns, plus each row's
    line in the file. Blank rows are skipped but still counted; the first
    row of another width, or with an empty src or dst, is an error."""
    rows = list(csv.reader(_decode(path, data).splitlines()))
    if not rows or [c.strip().lower() for c in rows[0]] != ["src", "dst", "rate"]:
        raise ParseError(f"{path}: first line must be the header 'src,dst,rate'")
    body = rows[1:]
    # a row is blank when its cells, joined, are only whitespace
    filled = list(map(bool, map(str.strip, map("".join, body))))
    lines = np.flatnonzero(filled) + 2
    quotes = list(compress(body, filled))
    if not quotes:
        raise ParseError(f"{path}: no rate rows")
    if set(map(len, quotes)) != {3}:
        _first_bad_row(path, lines, quotes)
    src, dst, rate = (list(map(str.strip, col)) for col in zip(*quotes))
    if not (all(src) and all(dst)):
        _first_bad_row(path, lines, quotes)
    return lines, src, dst, rate


def _bad_rates(rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masks of the rates that are not positive and finite, and of the
    positive rates so small that their reciprocal overflows."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        positive = np.isfinite(rates) & (rates > 0.0)
        return ~positive, positive & ~np.isfinite(1.0 / rates)


def _key_order(n: int, i: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The quote keys in ascending order, the order that sorts them, and a
    mask of each repeat of an earlier row's key. A quote's key is
    (lo * n + hi) * 2, plus 1 if it runs from hi to lo, so the quotes of a
    pair are adjacent, lo -> hi first."""
    # n is at most the distinct tokens, twice the rows, so 2 n^2 fits in
    # int64 for any file below ~10^9 rows
    key = (np.minimum(i, j) * n + np.maximum(i, j)) * 2 + (i > j)
    order = np.argsort(key, kind="stable")
    keys = key[order]
    repeat = np.zeros(len(key), bool)
    repeat[order[1:][keys[1:] == keys[:-1]]] = True
    return keys, order, repeat


def _canonical_quotes(data: bytes) -> _Quotes | None:
    """:func:`_tokenized_quotes` of a canonical file, in one C pass; None
    for any other file and for every file the tokenizer must reject.

    numpy parses each rate with the routine ``float()`` uses, so the values
    are the same to the bit; no text, row list or string column is built."""
    start = len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0
    end = start + len(_CANONICAL_HEADER)
    if not data.startswith(_CANONICAL_HEADER, start) or len(data) == end:
        return None
    if _NOT_A_ROW.search(data, end - 1):  # from the header's newline on
        return None
    try:
        rows = np.loadtxt(BytesIO(data), _QUOTE_ROW, delimiter=",", skiprows=1, ndmin=1)
    except ValueError:  # an index beyond int64
        return None
    i, j, rates = rows["src"] - 1, rows["dst"] - 1, rows["rate"]
    # as in the label table, the indices must name every good up to the
    # largest; past twice the row count some surely do not, and that is
    # checked first, so the mask is sized by the file, not by one index
    n = int(max(i.max(), j.max())) + 1
    if n > 2 * len(rows):
        return None
    quoted = np.zeros(n, bool)
    quoted[i] = quoted[j] = True
    if not quoted.all():
        return None
    keys, order, repeat = _key_order(n, i, j)
    not_positive, tiny = _bad_rates(rates)
    if (not_positive | tiny | repeat).any():
        return None
    return tuple(map(str, range(1, n + 1))), keys, rates[order]


def _tokenized_quotes(path: str | Path, data: bytes) -> _Quotes:
    """The label table, the quote keys of :func:`_key_order` ascending and
    the rates in that order, read through the csv tokenizer, which raises
    every error of the rows, the labels and the rates."""
    lines, src, dst, rate_text = _rate_columns(path, data)
    labels, to_index = _label_table(path, {*src, *dst})
    n, count = len(labels), len(lines)
    i = np.fromiter(map(to_index, src), np.int64, count) - 1
    j = np.fromiter(map(to_index, dst), np.int64, count) - 1
    rates, junk = _parse_rates(rate_text)
    keys, order, repeat = _key_order(n, i, j)
    not_positive, tiny = _bad_rates(rates)
    bad = junk | not_positive | tiny | repeat
    if bad.any():
        k = int(np.argmax(bad))
        where = f"{path}:{lines[k]}"
        if junk[k]:
            raise ParseError(f"{where}: rate {rate_text[k]!r} is not a number")
        if not_positive[k]:
            raise ParseError(f"{where}: rate must be positive and finite, got {rate_text[k]}")
        if tiny[k]:
            raise ParseError(f"{where}: rate {rate_text[k]} is too small: its reciprocal overflows")
        raise ParseError(f"{where}: duplicate quote {src[k]}->{dst[k]}")
    return labels, keys, rates[order]


def _parse_rates(texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Every rate text as a float, plus a mask of the texts that are not
    numbers (their value reads 1.0)."""
    try:
        return np.fromiter(map(float, texts), float, len(texts)), np.zeros(len(texts), bool)
    except ValueError:
        pass
    # some text is not a number: find every such row, for the error's line
    values, junk = np.ones(len(texts)), np.zeros(len(texts), bool)
    for k, text in enumerate(texts):
        try:
            values[k] = float(text)
        except ValueError:
            junk[k] = True
    return values, junk


def _label_table(path: str | Path, tokens: set[str]) -> tuple[tuple[str, ...], Callable[[str], int]]:
    if all(_DIGIT_TOKEN.fullmatch(t) for t in tokens):
        if not all(_INDEX_TOKEN.fullmatch(t) for t in tokens):
            raise ParseError(f"{path}: integer vertex indices are 1-based")
        n = max(int(t) for t in tokens)
        # an index beyond the count of distinct tokens names a good that is
        # never quoted; say so before building a label per index
        if n > len(tokens):
            raise NotConnectedError(f"{path}: the quoted pairs do not connect every good")
        return tuple(str(i) for i in range(1, n + 1)), int
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
    whose reciprocal overflows. Each check runs over whole columns.

    A canonical file (see ``_CANONICAL_HEADER``) whose rows pass the checks
    up to the bad rates is parsed in one C pass; every other file goes
    through the csv tokenizer, which raises those errors. Both give the same
    result.
    """
    require_tol(tol)
    return _rates_of(path, _read_bytes(path), tol)


def _rates_of(path: str | Path, data: bytes, tol: float) -> RatesFile:
    """:func:`load_rates` of the file's bytes ``data``, ``tol`` checked."""
    labels, keys, rates = _canonical_quotes(data) or _tokenized_quotes(path, data)
    del data  # only the parsers read it; free it before the graph is built
    n = len(labels)

    # the quotes by pair (lo, hi) ascending; a pair quoted both ways is its
    # lo -> hi quote followed by its hi -> lo one
    pair, down = keys >> 1, (keys & 1).astype(bool)
    lo, hi = pair // n, pair % n
    first = np.ones(len(keys), bool)
    first[1:] = pair[1:] != pair[:-1]
    both = np.flatnonzero(~first)
    there, home = rates[both - 1].tolist(), rates[both].tolist()
    # math.log, not np.log: numpy's log may differ from it in the last bit,
    # which would move a drift lying right at tol across the line
    drift = np.fromiter(map(math.log, there), float, len(both)) + np.fromiter(
        map(math.log, home), float, len(both)
    )
    conflict = np.flatnonzero(np.abs(drift) > tol)
    if conflict.size:
        k = int(conflict[0])
        a, b = labels[lo[both[k]]], labels[hi[both[k]]]
        raise ReciprocalConflictError(
            f"{path}: quotes {a}->{b} and {b}->{a} multiply to {there[k] * home[k]:.12g}, not 1"
        )

    loop = lo == hi
    edge = first & ~loop
    graph = MarketGraph._of_arrays(n, lo[edge], hi[edge], lo[loop])
    if not is_connected(graph):
        raise NotConnectedError(f"{path}: the quoted pairs do not connect every good")
    # each quote's directed edge id, and the reverse of each one-sided quote
    e = graph._lo.size
    ids = np.cumsum(edge) - 1 + e * down
    ids[loop] = 2 * e + np.arange(graph._loop_array.size)
    alone = edge.copy()
    alone[:-1] &= first[1:]
    values = np.empty(graph._edge_count)
    values[ids] = rates
    values[ids[alone] + np.where(down[alone], -e, e)] = 1.0 / rates[alone]
    # filled in the order of the quotes they complete, by (src, dst)
    src, dst = np.where(down, hi, lo)[alone], np.where(down, lo, hi)[alone]
    order = np.argsort(src * n + dst)
    return RatesFile(
        matrix=RateMatrix._of(graph, values),
        labels=labels,
        filled=tuple(zip((dst[order] + 1).tolist(), (src[order] + 1).tolist())),
    )


def rate_rows(
    values: np.ndarray, graph: MarketGraph, labels: Sequence[str]
) -> list[list[object]]:
    """Every edge's quotes as [src, dst, rate] rows: both directions per
    pair, loops once, in ascending edge order. ``values`` holds one rate per
    directed edge in edge-id order, like :attr:`RateMatrix.values`."""
    return [[labels[i], labels[j], rate] for i, j, rate in zip(*_quotes(values, graph))]


def _quotes(values: np.ndarray, graph: MarketGraph) -> tuple[list[int], list[int], list[float]]:
    """The 0-based sources, targets and rates of :func:`rate_rows`."""
    src, dst = graph._edge_ends
    # by undirected edge (lo, hi), then (lo, hi) ahead of (hi, lo)
    order = np.lexsort((src > dst, np.maximum(src, dst), np.minimum(src, dst)))
    return src[order].tolist(), dst[order].tolist(), values[order].tolist()


def save_rates(path: str | Path, r: RateMatrix, labels: Sequence[str] | None = None) -> None:
    """Write every edge's quotes as CSV: both directions per pair, loops once.

    The csv writer renders each label's cell once; the rows are then
    formatted in one pass, a rate as its repr, which is how the writer
    renders a float.
    """
    names = tuple(labels) if labels else tuple(str(i) for i in range(1, r.n + 1))
    # a row of the cell and an empty one renders the cell as inside a quote row
    rendered: list[str] = []
    csv.writer(SimpleNamespace(write=rendered.append), lineterminator="\n").writerows(
        (name, "") for name in names
    )
    cell = [row[:-2] for row in rendered].__getitem__
    src, dst, rates = _quotes(r.values, r.graph)
    rows = map(",".join, zip(map(cell, src), map(cell, dst), map(repr, rates)))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("src,dst,rate")
        # joined in blocks, so that no copy of the whole text is held
        while block := "\n".join(islice(rows, 1 << 14)):
            fh.write("\n" + block)
        fh.write("\n")


def load_basis(
    path: str | Path, graph: MarketGraph, *, multiplicative: bool = False
) -> BasisAssignment:
    """Read a basis file: {"entries": [[i, j], ...], "values": [...]}.

    Values are log-domain by default; ``multiplicative`` converts positive
    rates on load.
    """
    return _basis_of(path, _read_bytes(path), graph, multiplicative)


def _basis_of(path: str | Path, data: bytes, graph: MarketGraph, multiplicative: bool) -> BasisAssignment:
    """:func:`load_basis` of the file's bytes ``data``."""
    doc = _read_json(path, data)
    if not isinstance(doc, dict) or "entries" not in doc or "values" not in doc:
        raise ParseError(f"{path}: basis file needs 'entries' and 'values'")
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
    return _perturbation_of(path, _read_bytes(path), graph)


def _perturbation_of(path: str | Path, data: bytes, graph: MarketGraph) -> PerturbationVector:
    """:func:`load_perturbation` of the file's bytes ``data``."""
    doc = _read_json(path, data)
    if not isinstance(doc, dict) or "basis" not in doc or "deltas" not in doc:
        raise ParseError(f"{path}: perturbation file needs 'basis' and 'deltas'")
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
    if not isinstance(raw, list) or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in raw):
        raise ParseError(f"{path}: '{key}' must be a list of numbers")
    if len(raw) != spec.size:
        raise ParseError(f"{path}: {spec.size} {entries} but {len(raw)} {key}")
    return [float(v) for v in raw]


@dataclass
class RunReport:
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
        """The report as plain JSON values; a float beyond the float range
        (JSON has no infinity) is written as None."""
        witness = None
        if self.witness is not None:
            gain = self.witness.multiplicative_gain
            witness = {
                "cycle": list(self.witness.cycle),
                "log_gain": self.witness.log_gain,
                # JSON has no infinity; null marks a gain beyond the float range
                "multiplicative_gain": gain if math.isfinite(gain) else None,
            }
        return {
            "command": self.command,
            "verdict": self.verdict,
            "witness": witness,
            "metrics": dict(self.metrics),
            "inputs": dict(self.inputs),
            "labels": list(self.labels),
            "data": {key: _inf_to_none(value) for key, value in self.data.items()},
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), indent=2, sort_keys=True)``."""
        return _json_text(self.to_dict())

    def to_text(self) -> str:
        lines = [f"arbx {self.command}", f"verdict: {self.verdict}"]
        if self.witness is not None:
            path = " -> ".join(self._label(v) for v in self.witness.cycle)
            lines.append(f"witness: {path}")
            lines.append(f"  log gain: {self.witness.log_gain:.12g}")
            lines.append(f"  multiplicative gain: {self.witness.multiplicative_gain:.12g}")
        for key, value in self.data.items():
            lines.extend(_render(key, value))
        if self.labels:
            lines.append(
                "labels: " + " ".join(f"{lab}={k}" for k, lab in enumerate(self.labels, 1))
            )
        if self.metrics:
            lines.append(
                "metrics: " + " ".join(f"{k}={_num(v)}" for k, v in sorted(self.metrics.items()))
            )
        if self.inputs:
            lines.append(
                "inputs: " + " ".join(f"{k}={v}" for k, v in sorted(self.inputs.items()))
            )
        return "\n".join(lines)

    def _label(self, v: int) -> str:
        if 1 <= v <= len(self.labels):
            return self.labels[v - 1]
        return str(v)


def _inf_to_none(value: object) -> object:
    # NaN is left as it is: it marks a fault, not a value past the float range.
    # A list of plain cells, or of rows of them, is copied by C-level passes.
    if isinstance(value, float):
        return None if math.isinf(value) else value
    if not isinstance(value, list):
        return value
    cells = value
    types = set(map(type, value))
    if types == {list}:  # rows: screen their cells
        cells = list(chain.from_iterable(value))
        types = set(map(type, cells))
    if any(issubclass(t, list) for t in types) or math.inf in cells or -math.inf in cells:
        return [_inf_to_none(item) for item in value]
    return list(value) if cells is value else list(map(list, value))


def _num(v: object) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


def _render(key: str, value: object) -> list[str]:
    if isinstance(value, list):
        if all(isinstance(item, list) for item in value):
            lines = [f"{key}:"]
            lines.extend("  " + ",".join(_num(cell) for cell in item) for item in value)
            return lines
        return [f"{key}: " + " ".join(_num(item) for item in value)]
    return [f"{key}: {_num(value)}"]
