"""The run envelope every CLI command shares.

Each ``cmd_*`` returns its command's own metrics, data and the digests of
the files it read; ``main`` adds the run metrics: ``elapsed_ms``,
``peak_rss_mb`` and the spans of the layers that ran. One table pins what
every command reports, and an error report carries no metrics and no inputs.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arbx.cli import build_parser, main
from arbx.io import RunReport, _inf_to_none
from helpers import RUN_METRICS, reference_inf_to_none, steady

DATA = Path(__file__).parent / "data"
TRIANGLE, K3 = DATA / "triangle_ok.csv", DATA / "k3.json"

# the size of the market a command read, the same triangle in every run below
SIZES = {"n": 3, "edges": 3, "chords": 1}
READ = {"parse_ms", "tree_ms"}  # the spans of every command that reads a market
CHECK = {"cycles_checked", "max_abs_log_gain", *SIZES}

# command: (metrics keys but the run metrics, the spans among them, data keys)
ENVELOPE = {
    "check": (CHECK, READ | {"check_ms"}, {"filled_reciprocals"}),
    "oracle": (CHECK, READ | {"check_ms"}, {"filled_reciprocals"}),
    "complete": ({"dimension", *SIZES}, READ | {"write_ms"}, {"out", "rows"}),
    "basis": ({"dimension", *SIZES}, READ, {"entries"}),
    "dim": ({"dimension", *SIZES}, READ, {"dimension"}),
    "price": (set(SIZES), READ, {"reference", "prices_log", "prices_multiplicative"}),
    "perturb": ({"basis_size", "max_abs_log_delta", *SIZES}, READ, {"mode", "rates"}),
    "gen": ({"edge_count"}, {"write_ms"}, {"out", "kind", "n", "seed"}),
}


def _metrics(command):
    # every metrics key of a successful run through main
    metrics, spans, _ = ENVELOPE[command]
    return metrics | spans | {"elapsed_ms", "peak_rss_mb"}


def _delta(tmp_path, deltas=(0.25, -0.1)):
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"basis": {"entries": [[1, 2], [1, 3]]}, "deltas": list(deltas)}))
    return path


def _runs(tmp_path):
    """(argv, {inputs key: the file read}) of one successful run per command."""
    basis, delta, out = DATA / "k3_basis_mult.json", _delta(tmp_path), str(tmp_path / "out")
    return [
        (["check", "--rates", str(TRIANGLE)], {"rates": TRIANGLE}),
        (["oracle", "--rates", str(TRIANGLE)], {"rates": TRIANGLE}),
        (["complete", "--graph", str(K3), "--basis", str(basis), "--multiplicative", "--out", out],
         {"graph": K3, "basis": basis}),
        (["basis", "--graph", str(K3)], {"graph": K3}),
        (["dim", "--graph", str(K3)], {"graph": K3}),
        (["price", "--rates", str(TRIANGLE), "--ref", "1"], {"rates": TRIANGLE}),
        (["perturb", "--rates", str(TRIANGLE), "--delta", str(delta), "--exact"],
         {"rates": TRIANGLE, "delta": delta}),
        (["gen", "--kind", "pa", "--n", "6", "--m", "2", "--seed", "1", "--out", out], {}),
    ]


def _errors(tmp_path):
    """One failing run per command, each after it read a file where it reads any."""
    bad_row = tmp_path / "bad.csv"
    bad_row.write_text("src,dst,rate\n1,2,2\n2,3,x\n")
    huge, out = _delta(tmp_path, (800.0, -0.1)), str(tmp_path / "out")
    return [
        ["check", "--rates", str(bad_row)],
        ["oracle", "--rates", str(TRIANGLE), "--max-n", "2"],
        ["complete", "--graph", str(K3), "--basis", str(K3), "--out", out],
        ["basis", "--graph", str(tmp_path / "missing.json")],
        ["dim", "--graph", str(bad_row)],
        ["price", "--rates", str(TRIANGLE), "--ref", "JPY"],
        ["perturb", "--rates", str(TRIANGLE), "--delta", str(huge), "--exact"],
        ["gen", "--kind", "pa", "--n", "6", "--seed", "1", "--out", out],
    ]


def _main_json(capsys, argv):
    code = main([*argv, "--format", "json"])
    return code, json.loads(capsys.readouterr().out)


def test_the_table_covers_every_command():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    assert set(sub.choices) == set(ENVELOPE)


def test_every_command_reports_its_envelope(capsys, monkeypatch, tmp_path):
    read_bytes = Path.read_bytes
    for argv, inputs in _runs(tmp_path):
        reads = []
        monkeypatch.setattr(Path, "read_bytes", lambda p: reads.append(Path(p)) or read_bytes(p))
        code, doc = _main_json(capsys, argv)
        monkeypatch.undo()
        metrics, _, data = ENVELOPE[argv[0]]
        assert code == 0 and doc["command"] == argv[0], argv
        assert set(doc["metrics"]) == _metrics(argv[0]), argv
        run = {k: v for k, v in doc["metrics"].items() if k in RUN_METRICS}
        assert all(isinstance(v, float) and v >= 0 for v in run.values()), (argv, run)
        assert doc["metrics"]["peak_rss_mb"] > 0, argv
        if SIZES.keys() <= metrics:
            assert {k: doc["metrics"][k] for k in SIZES} == SIZES, argv
        assert set(doc["data"]) == data, argv
        assert doc["labels"] == [], argv  # each market here names its goods by index
        assert sorted(reads) == sorted(inputs.values()), argv
        assert doc["inputs"] == {
            key: "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest() for key, path in inputs.items()
        }


def test_only_a_sheet_of_named_goods_lists_its_labels(capsys, tmp_path):
    # an index sheet lists none, whichever reader took it, in either format
    spaced = tmp_path / "spaced.csv"
    spaced.write_text(TRIANGLE.read_text().replace(",", ", "))
    labeled, delta = DATA / "triangle_labeled.csv", str(_delta(tmp_path))
    for sheet, ref, labels in ((TRIANGLE, "1", []), (spaced, "1", []), (labeled, "GBP", ["EUR", "GBP", "USD"])):
        for argv in (["check"], ["oracle"], ["price", "--ref", ref], ["perturb", "--delta", delta, "--exact"]):
            argv = [*argv, "--rates", str(sheet)]
            assert _main_json(capsys, argv)[1]["labels"] == labels, argv
            main(argv)
            assert ("\nlabels: " in capsys.readouterr().out) == bool(labels), argv


def test_text_report_lists_the_same_metrics(capsys, tmp_path):
    for argv, _ in _runs(tmp_path):
        main(argv)
        line = next(s for s in capsys.readouterr().out.splitlines() if s.startswith("metrics: "))
        keys = {item.split("=")[0] for item in line[len("metrics: "):].split()}
        assert keys == _metrics(argv[0]), argv


def test_error_report_has_no_metrics_and_no_inputs(capsys, tmp_path):
    for argv in _errors(tmp_path):
        code, doc = _main_json(capsys, argv)
        assert code == 1 and doc["verdict"] == "error", argv
        assert doc["metrics"] == {} and doc["inputs"] == {}, argv
        assert set(doc["data"]) == {"error", "message"}, argv


def test_a_command_called_alone_carries_no_elapsed_ms(capsys, tmp_path):
    for argv, _ in _runs(tmp_path):
        args = build_parser().parse_args(argv)
        alone = args.func(args).to_dict()
        _, doc = _main_json(capsys, argv)
        assert not alone["metrics"].keys() & set(RUN_METRICS), argv
        steady(doc)
        if "out" in doc["data"]:
            alone["data"]["out"] = doc["data"]["out"]
        assert alone == doc, argv


# --- RunReport.to_dict: infinities become None, in fresh lists

CELLS = (
    st.floats() | st.sampled_from([math.inf, -math.inf, -0.0, 0.0, math.nan])
    | st.integers() | st.booleans() | st.none() | st.text(max_size=3)
)
VALUES = st.recursive(CELLS, lambda inner: st.lists(inner, max_size=6), max_leaves=30)


def _same(a, b):
    # equal item by item, NaN included, with the same types and zero signs
    if isinstance(a, list):
        return type(b) is list and len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, float) and isinstance(b, float):
        return a == b and math.copysign(1, a) == math.copysign(1, b) or math.isnan(a) and math.isnan(b)
    return type(a) is type(b) and a == b


def _lists(value):
    if isinstance(value, list):
        yield value
        for item in value:
            yield from _lists(item)


@given(VALUES)
def test_inf_to_none_matches_the_item_walk(value):
    out = _inf_to_none(value)
    assert _same(out, reference_inf_to_none(value))
    # every list of the result is new: changing it leaves the report's data alone
    assert not {id(x) for x in _lists(out)} & {id(x) for x in _lists(value)}


def test_rows_and_flat_lists_keep_their_cells():
    rows = [[1, 2, 0.5], [2, 1, 2.0], [3, 3, -0.0]]
    report = RunReport("price", "ok", None, {}, {}, (), {
        "rows": rows, "flat": [0.5, -0.0, 7], "bad_row": [[1, 2, math.inf], [2, 1, 0.0]],
        "deep": [[[math.nan, -math.inf]]], "scalar": math.inf,
    })
    data = report.to_dict()["data"]
    assert data["rows"] == rows and data["rows"] is not rows and data["rows"][0] is not rows[0]
    assert data["flat"] == [0.5, -0.0, 7] and math.copysign(1, data["flat"][1]) == -1
    assert data["bad_row"] == [[1, 2, None], [2, 1, 0.0]] and data["scalar"] is None
    assert math.isnan(data["deep"][0][0][0]) and data["deep"][0][0][1] is None
    data["rows"][0][2] = 9.0
    assert rows[0][2] == 0.5


@pytest.mark.parametrize("inf", [math.inf, -math.inf])
def test_an_infinity_in_one_row_is_written_as_null(inf):
    rows = [[k, k + 1, float(k)] for k in range(100)]
    rows[57][2] = inf
    out = _inf_to_none(rows)
    assert out[57] == [57, 58, None] and all(out[k] == rows[k] for k in range(100) if k != 57)
