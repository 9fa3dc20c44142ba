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

import csv
import hashlib
import json
import math
import re
from dataclasses import dataclass
from itertools import compress
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .basis import BasisAssignment, BasisSpec
from .dynamics import PerturbationVector
from .errors import NotConnectedError, ParseError, ReciprocalConflictError
from .exchange import DEFAULT_TOL, ArbitrageWitness, RateMatrix, require_tol
from .graph import MarketGraph, is_connected, new_graph

_INDEX_TOKEN = re.compile(r"[1-9][0-9]*")
_DIGIT_TOKEN = re.compile(r"[0-9]+")


def file_digest(path: str | Path) -> str:
    return "sha256:" + hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _read_json(path: str | Path) -> object:
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON ({exc})") from exc


def _int_pairs(path: str | Path, pairs: object, what: str) -> list[tuple[int, int]]:
    if not isinstance(pairs, list):
        raise ParseError(f"{path}: {what} must be a list of [i, j] pairs")
    out = []
    for item in pairs:
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in item)
        ):
            raise ParseError(f"{path}: bad {what} element {item!r}")
        out.append((item[0], item[1]))
    return out


def load_graph(path: str | Path) -> MarketGraph:
    """Read a graph file: {"n": int, "edges": [[i, j], ...]}, 1-based."""
    doc = _read_json(path)
    if not isinstance(doc, dict) or "n" not in doc or "edges" not in doc:
        raise ParseError(f"{path}: graph file needs 'n' and 'edges'")
    n = doc["n"]
    if not isinstance(n, int) or isinstance(n, bool):
        raise ParseError(f"{path}: 'n' must be an integer")
    return new_graph(n, _int_pairs(path, doc["edges"], "edges"))


def save_graph(path: str | Path, g: MarketGraph) -> None:
    doc = {"n": g.n, "edges": [list(e) for e in sorted(g.edges)]}
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


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


def _rate_columns(path: str | Path) -> tuple[np.ndarray, list[str], list[str], list[str]]:
    """The quote rows as stripped src, dst and rate columns, plus each row's
    line in the file. Blank rows are skipped but still counted; the first
    row of another width, or with an empty src or dst, is an error."""
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    rows = list(csv.reader(text.splitlines()))
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
    connectivity. Each check runs over whole columns.
    """
    require_tol(tol)
    lines, src, dst, rate_text = _rate_columns(path)
    labels, to_index = _label_table(path, {*src, *dst})
    # _label_table bounds n by the distinct tokens, so i * n + j cannot overflow
    n, count = len(labels), len(lines)
    i = np.fromiter(map(to_index, src), np.int64, count) - 1
    j = np.fromiter(map(to_index, dst), np.int64, count) - 1
    rates, junk = _parse_rates(rate_text)

    key = i * n + j
    order = np.argsort(key, kind="stable")
    keys = key[order]
    repeat = np.zeros(count, bool)
    repeat[order[1:][keys[1:] == keys[:-1]]] = True
    bad_rate = junk | ~np.isfinite(rates) | (rates <= 0.0)
    bad = bad_rate | repeat
    if bad.any():
        k = int(np.argmax(bad))
        where = f"{path}:{lines[k]}"
        if junk[k]:
            raise ParseError(f"{where}: rate {rate_text[k]!r} is not a number")
        if bad_rate[k]:
            raise ParseError(f"{where}: rate must be positive and finite, got {rate_text[k]}")
        raise ParseError(f"{where}: duplicate quote {src[k]}->{dst[k]}")

    # the quotes in ascending (i, j) order, each with its reverse quote if any
    rates, qi, qj = rates[order], keys // n, keys % n
    reverse = qj * n + qi
    back = np.minimum(np.searchsorted(keys, reverse), count - 1)
    paired = keys[back] == reverse
    up = np.flatnonzero(paired & (qi < qj))
    there, home = rates[up].tolist(), rates[back[up]].tolist()
    # math.log, not np.log: numpy's log may differ from it in the last bit,
    # which would move a drift lying right at tol across the line
    drift = np.fromiter(map(math.log, there), float, len(up)) + np.fromiter(
        map(math.log, home), float, len(up)
    )
    conflict = np.flatnonzero(np.abs(drift) > tol)
    if conflict.size:
        k = int(conflict[0])
        a, b = labels[qi[up[k]]], labels[qj[up[k]]]
        raise ReciprocalConflictError(
            f"{path}: quotes {a}->{b} and {b}->{a} multiply to {there[k] * home[k]:.12g}, not 1"
        )

    del src, dst, rate_text  # only errors read them; free them before the graph is built
    fill = ~paired & (qi != qj)
    lo, hi = np.minimum(i, j) + 1, np.maximum(i, j) + 1
    graph = MarketGraph(n, frozenset(zip(lo.tolist(), hi.tolist())))
    if not is_connected(graph):
        raise NotConnectedError(f"{path}: the quoted pairs do not connect every good")
    # every directed edge is quoted or is the reverse of a filled quote
    values = np.empty(graph._edge_count)
    values[graph._edge_ids(qi, qj)] = rates
    values[graph._edge_ids(qj[fill], qi[fill])] = 1.0 / rates[fill]
    return RatesFile(
        matrix=RateMatrix._of(graph, values),
        labels=labels,
        filled=tuple(zip((qj[fill] + 1).tolist(), (qi[fill] + 1).tolist())),
    )


def rate_rows(
    values: np.ndarray, graph: MarketGraph, labels: Sequence[str]
) -> list[list[object]]:
    """Every edge's quotes as [src, dst, rate] rows: both directions per
    pair, loops once, in ascending edge order. ``values`` holds one rate per
    directed edge in edge-id order, like :attr:`RateMatrix.values`."""
    src, dst = graph._edge_ends
    # by undirected edge (lo, hi), then (lo, hi) ahead of (hi, lo)
    order = np.lexsort((src > dst, np.maximum(src, dst), np.minimum(src, dst)))
    rows = zip(src[order].tolist(), dst[order].tolist(), values[order].tolist())
    return [[labels[i], labels[j], rate] for i, j, rate in rows]


def save_rates(path: str | Path, r: RateMatrix, labels: Sequence[str] | None = None) -> None:
    """Write every edge's quotes as CSV: both directions per pair, loops once."""
    names = tuple(labels) if labels else tuple(str(i) for i in range(1, r.n + 1))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["src", "dst", "rate"])
        writer.writerows(rate_rows(r.values, r.graph, names))


def load_basis(
    path: str | Path, graph: MarketGraph, *, multiplicative: bool = False
) -> BasisAssignment:
    """Read a basis file: {"entries": [[i, j], ...], "values": [...]}.

    Values are log-domain by default; ``multiplicative`` converts positive
    rates on load.
    """
    doc = _read_json(path)
    if not isinstance(doc, dict) or "entries" not in doc or "values" not in doc:
        raise ParseError(f"{path}: basis file needs 'entries' and 'values'")
    entries = _int_pairs(path, doc["entries"], "entries")
    raw = doc["values"]
    if not isinstance(raw, list) or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in raw):
        raise ParseError(f"{path}: 'values' must be a list of numbers")
    values = [float(v) for v in raw]
    if len(values) != len(entries):
        raise ParseError(f"{path}: {len(entries)} entries but {len(values)} values")
    if multiplicative:
        if any(not math.isfinite(v) or v <= 0.0 for v in values):
            raise ParseError(f"{path}: multiplicative basis values must be positive")
        values = [math.log(v) for v in values]
    spec = BasisSpec(graph=graph, entries=tuple(entries))
    return BasisAssignment(spec=spec, values=tuple(values))


def load_perturbation(path: str | Path, graph: MarketGraph) -> PerturbationVector:
    """Read a perturbation file: {"basis": {"entries": [...]}, "deltas": [...]}.

    Deltas are log-domain. The embedded basis may carry "values" (the basis
    file shape); they are not needed here and are ignored.
    """
    doc = _read_json(path)
    if not isinstance(doc, dict) or "basis" not in doc or "deltas" not in doc:
        raise ParseError(f"{path}: perturbation file needs 'basis' and 'deltas'")
    basis = doc["basis"]
    if not isinstance(basis, dict) or "entries" not in basis:
        raise ParseError(f"{path}: 'basis' needs 'entries'")
    entries = _int_pairs(path, basis["entries"], "basis entries")
    raw = doc["deltas"]
    if not isinstance(raw, list) or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in raw):
        raise ParseError(f"{path}: 'deltas' must be a list of numbers")
    if len(raw) != len(entries):
        raise ParseError(f"{path}: {len(entries)} basis entries but {len(raw)} deltas")
    spec = BasisSpec(graph=graph, entries=tuple(entries))
    return PerturbationVector(spec=spec, deltas=tuple(float(v) for v in raw))


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
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

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
    # NaN is left as it is: it marks a fault, not a value past the float range
    if isinstance(value, float):
        return None if math.isinf(value) else value
    if isinstance(value, list):
        return [_inf_to_none(item) for item in value]
    return value


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
