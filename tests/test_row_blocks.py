"""Report rows and written files rendered straight from the edge arrays, one
fixed block at a time: the same text as json.dumps and the list renderers,
with a traced peak of one block plus O(n + E) bytes; and the CLI fixes that
ride along (digit-limit errors end in a report, one tree search per
``complete``)."""

import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arbx
import arbx.graph as arbx_graph
import arbx.io as arbx_io
from arbx import RateMatrix, canonical_basis, complete, exp_of, generate_graph
from arbx.basis import BasisAssignment
from arbx.cli import build_parser, cmd_complete, cmd_perturb, main
from arbx.io import RunReport, _inf_to_none, _json_text, _Rows, save_rates

DATA = Path(__file__).parent / "data"


def dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


# --- the block's text against json.dumps and the list renderers

LABELS = st.text(st.characters(codec="utf-8"), max_size=4) | st.sampled_from(
    ['"', 'a"b', "\x1f", "\x1e", "]\x1f[", "\\", ",", "é", "€", "日本", "\n", ""]
)
VALUES = st.floats() | st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 0.0, 1e-300, 1e16, 5e-324])


@st.composite
def blocks(draw):
    """A row block and its list form: string or integer labels, two index
    columns, maybe a value column, and any row order."""
    labels = draw(st.lists(LABELS, min_size=1, max_size=6) | st.integers(1, 6).map(lambda n: range(1, n + 1)))
    k = draw(st.integers(0, 12))
    index = st.lists(st.integers(0, len(labels) - 1), min_size=k, max_size=k)
    columns = [np.array(draw(index), np.int64), np.array(draw(index), np.int64)]
    if draw(st.booleans()):
        columns.append(np.array(draw(st.lists(VALUES, min_size=k, max_size=k)), float))
    order = np.array(draw(st.permutations(range(k))), np.int64)
    rows = [[labels[c[p]] if n < 2 else float(c[p]) for n, c in enumerate(columns)] for p in order.tolist()]
    return _Rows(columns, labels, order), rows


@settings(max_examples=300)
@given(block=blocks(), size=st.integers(1, 5), key=st.text(max_size=3))
def test_block_text_is_json_dumps_of_its_list_form(block, size, key):
    rows, plain = block
    with mock.patch.object(arbx_io, "_BLOCK", size):  # blocks of 1 to 5 rows: every boundary
        assert _json_text(rows) == dumps(_inf_to_none(plain))
        assert _json_text({key: {"rows": rows}}) == dumps({key: {"rows": _inf_to_none(plain)}})
        report = RunReport("perturb", "ok", None, {"elapsed_ms": 1.5}, {}, ("a", "b"), {"rates": rows, "n": 2})
        listed = RunReport("perturb", "ok", None, {"elapsed_ms": 1.5}, {}, ("a", "b"), {"rates": plain, "n": 2})
        assert report.to_json() == listed.to_json() == dumps(report.to_dict())
        # the text renderer writes the block as it writes the rows themselves
        assert report.to_text() == listed.to_text()
        assert json.dumps(rows.tolist()) == json.dumps(plain)


def test_an_empty_block_is_an_empty_list():
    rows = _Rows([np.zeros(0, np.int64)] * 2, ("a",), np.zeros(0, np.int64))
    assert _json_text({"x": rows}) == dumps({"x": []})
    report = RunReport("check", "ok", None, {}, {}, (), {"filled_reciprocals": rows})
    assert report.to_text() == RunReport("check", "ok", None, {}, {}, (), {"filled_reciprocals": []}).to_text()


class _CountedLabels(tuple):
    """Labels that count how often they are read whole, as an encoder reads them."""

    reads = 0

    def __iter__(self):
        self.reads += 1
        return super().__iter__()


def test_an_empty_block_encodes_no_label(monkeypatch):
    # check's filled_reciprocals is empty on every sheet quoted both ways
    names = tuple(map(str, range(1, 1001)))
    labels = _CountedLabels(names)
    rows = _Rows([np.zeros(0, np.int64)] * 2, labels, np.zeros(0, np.int64))
    cells = mock.Mock(wraps=arbx_io._json_cells)
    monkeypatch.setattr(arbx_io, "_json_cells", cells)
    report = RunReport("check", "ok", None, {}, {}, names, {"filled_reciprocals": rows})
    json_text, text = report.to_json(), report.to_text()
    assert not cells.called and labels.reads == 0
    listed = RunReport("check", "ok", None, {}, {}, names, {"filled_reciprocals": []})
    assert json_text == listed.to_json() and '"filled_reciprocals": []' in json_text
    assert text == listed.to_text() and "\nfilled_reciprocals:\n" in text


def test_to_dict_writes_infinities_as_none_and_keeps_nan():
    g = arbx.new_graph(2, [(1, 2), (2, 2)])  # pair (1, 2), then the loop at 2
    rows = arbx_io._rate_rows(np.array([2.0, math.inf, math.nan]), g, ("a", "b"))
    data = RunReport("perturb", "ok", None, {}, {}, ("a", "b"), {"rates": rows}).to_dict()["data"]
    assert data["rates"][:2] == [["a", "b", 2.0], ["b", "a", None]]
    assert data["rates"][2][:2] == ["b", "b"] and math.isnan(data["rates"][2][2])
    assert rows.tolist()[1] == ["b", "a", math.inf]


def _refuse(token):
    raise ValueError(f"{token} is not JSON")


@pytest.mark.parametrize("inf", [math.inf, -math.inf])
def test_an_infinity_anywhere_in_the_data_is_written_as_null(inf):
    # inside a dict, inside a list, in a row block's value column, as a
    # scalar, and in a caller's metric: the JSON report holds no Infinity
    g = arbx.new_graph(2, [(1, 2)])
    rows = arbx_io._rate_rows(np.array([2.0, inf]), g, ("a", "b"))
    data = {"gains": {"cycle": inf, "deeper": {"flat": [1.0, inf]}}, "flat": [0.5, inf], "rates": rows, "scalar": inf}
    report = RunReport("perturb", "ok", None, {"wait_ms": math.inf}, {}, ("a", "b"), data)
    doc = json.loads(report.to_json(), parse_constant=_refuse)
    assert doc == report.to_dict()
    assert doc["metrics"] == {"wait_ms": None}
    assert doc["data"] == {
        "gains": {"cycle": None, "deeper": {"flat": [1.0, None]}},
        "flat": [0.5, None],
        "rates": [["a", "b", 2.0], ["b", "a", None]],
        "scalar": None,
    }
    # the text report writes the values themselves
    text = report.to_text()
    assert f"\n  b,a,{inf:.6g}\n" in text and f"\nscalar: {inf:.6g}\n" in text and "wait_ms=inf" in text


def test_an_infinity_in_a_tuple_or_in_a_dict_inside_a_list_is_written_as_null():
    # a flat tuple, a tuple that holds a list, and a dict inside a list all
    # take the one rule; a tuple reads back as the list JSON writes for it
    data = {"x": [{"y": math.inf}], "t": (1.0, -math.inf), "u": {"v": (math.inf, [math.inf])}}
    report = RunReport("price", "ok", None, {}, {}, (), data)
    doc = json.loads(report.to_json(), parse_constant=_refuse)
    assert doc["data"] == report.to_dict()["data"] == {"x": [{"y": None}], "t": [1.0, None], "u": {"v": [None, [None]]}}
    text = report.to_text()  # the text report writes inf
    assert text.count("inf") == 4 and "null" not in text and "None" not in text


# --- the traced peak: one block plus O(n + E) bytes

N, SEED = 17_000, 1  # pa m=3: 50,994 pairs, 101,988 directed rows


@pytest.fixture(scope="module")
def pa_graph():
    return generate_graph("pa", N, m=3, seed=SEED)


def _peak(call):
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_save_rates_peak_is_one_block_plus_arrays(pa_graph, tmp_path):
    g = pa_graph
    rows = g._edge_count
    assert rows >= 100_000
    r = RateMatrix._of(g, np.random.default_rng(SEED).uniform(0.5, 2.0, rows))
    _, peak = _peak(lambda: save_rates(tmp_path / "r.csv", r))
    # about five int64 arrays of one slot per row (the row order and its
    # parts), a few hundred bytes per label (names, csv cells) and one
    # block of rendered rows; the row lists held whole took 175 B per row
    assert peak <= 40 * rows + 250 * g.n + 200 * arbx_io._BLOCK, peak
    assert (tmp_path / "r.csv").read_text().count("\n") == rows + 1


def test_perturb_report_to_json_peak_is_its_text_plus_one_block(pa_graph, tmp_path):
    g = pa_graph
    spec = canonical_basis(g)
    rng = np.random.default_rng(SEED)
    values = tuple(rng.uniform(-0.5, 0.5, spec.size).tolist())
    save_rates(tmp_path / "r.csv", exp_of(complete(BasisAssignment(spec=spec, values=values))))
    delta = {"basis": {"entries": spec._pairs.tolist()}, "deltas": rng.uniform(-0.05, 0.05, spec.size).tolist()}
    (tmp_path / "d.json").write_text(json.dumps(delta))
    argv = ["perturb", "--rates", str(tmp_path / "r.csv"), "--delta", str(tmp_path / "d.json"), "--exact"]
    report = cmd_perturb(build_parser().parse_args(argv))
    assert isinstance(report.data["rates"], _Rows) and g._edge_count >= 100_000
    text, peak = _peak(report.to_json)
    # the text and its pieces before they are joined, the JSON cell of each
    # label and one block; the row lists and their copy took 3.9 times the text
    assert peak <= 2 * len(text) + 250 * g.n + 200 * arbx_io._BLOCK, (peak, len(text))
    assert text.count("\n      [\n") == g._edge_count


# --- every file kind with an integer past int()'s digit limit ends in a report

HUGE = "1" + "0" * 5000
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _huge_runs(tmp_path):
    """(argv, error type, the file it names) of one run per file kind."""
    files = {
        "g.json": '{"n": 3, "edges": [[1, 2], [2, 3]], "x": %s}' % HUGE,
        "b.json": '{"entries": [[1, 2], [1, 3]], "values": [%s, 0.5]}' % HUGE,
        "d.json": '{"basis": {"entries": [[1, 2], [1, 3]]}, "deltas": [%s, 0.5]}' % HUGE,
        "r.csv": "src,dst,rate\n1,2,2\n2,%s,3\n" % HUGE,
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    k3, ok = str(DATA / "k3.json"), str(DATA / "triangle_ok.csv")
    g, b, d, r = (str(tmp_path / name) for name in files)
    return [
        (["basis", "--graph", g], "ParseError", g),
        (["complete", "--graph", k3, "--basis", b, "--out", str(tmp_path / "o.csv")], "ParseError", b),
        (["perturb", "--rates", ok, "--delta", d], "ParseError", d),
        (["check", "--rates", r], "NotConnectedError", r),
    ]


def _expect_error_envelope(out: str, error: str, path: str) -> None:
    doc = json.loads(out)
    assert doc["verdict"] == "error" and doc["data"]["error"] == error
    assert doc["data"]["message"].startswith(f"{path}: ")


@pytest.mark.skipif(not DIGIT_LIMIT, reason="this interpreter reads integers of any length")
def test_huge_integers_end_in_an_error_report_through_main(tmp_path, capsys):
    for argv, error, path in _huge_runs(tmp_path):
        assert main(argv + ["--format", "json"]) == 1, argv
        captured = capsys.readouterr()
        assert captured.err == ""
        _expect_error_envelope(captured.out, error, path)


@pytest.mark.skipif(not DIGIT_LIMIT, reason="this interpreter reads integers of any length")
def test_huge_integers_end_in_an_error_report_through_the_module(tmp_path):
    src = str(Path(arbx.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    for argv, error, path in _huge_runs(tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "arbx.cli", *argv, "--format", "json"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 1 and proc.stderr == "", (argv, proc.stderr)
        _expect_error_envelope(proc.stdout, error, path)


def test_a_long_index_token_is_refused_by_its_length(tmp_path):
    # any interpreter: the token is longer than the count of goods, so it
    # names a good never quoted, and int() never reads it
    rates = tmp_path / "r.csv"
    rates.write_text("src,dst,rate\n1,2,2\n2,%s,3\n" % HUGE)
    with mock.patch.object(arbx_io, "int", side_effect=AssertionError("int() read a token"), create=True):
        with pytest.raises(arbx.NotConnectedError, match="do not connect every good"):
            arbx_io._label_table(rates, {"1", "2", HUGE})


# --- complete reports the basis size it verified: one tree search per run


def test_complete_searches_one_tree(tmp_path):
    g = generate_graph("pa", 40, m=2, seed=3)
    arbx_io.save_graph(tmp_path / "g.json", g)
    spec = canonical_basis(g)
    (tmp_path / "b.json").write_text(json.dumps({"entries": spec._pairs.tolist(), "values": [0.1] * spec.size}))
    argv = ["complete", "--graph", str(tmp_path / "g.json"), "--basis", str(tmp_path / "b.json"),
            "--out", str(tmp_path / "r.csv")]
    calls = []
    real = arbx_graph._bfs_tree

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    with mock.patch.object(arbx_graph, "_bfs_tree", counted):
        report = cmd_complete(build_parser().parse_args(argv))
    assert calls == [g.n]
    assert report.metrics["dimension"] == g.n - 1 == spec.size


def test_a_dict_list_or_tuple_list_item_is_one_cell_of_the_text_report():
    # the line parts back into its items, each written as the text report
    # writes it, infinities as inf
    items = [{"y": math.inf}, [1.0, "a b"], (2, -math.inf), 0.5, "p q"]
    text = RunReport("price", "ok", None, {}, {}, (), {"x": items}).to_text()
    line = next(line for line in text.splitlines() if line.startswith("x: "))
    assert next(csv.reader([line[3:]], delimiter=" ")) == ["{'y': inf}", "[1.0, 'a b']", "(2, -inf)", "0.5", "p q"]
