"""The CLI chain gen -> basis -> complete -> check -> price -> perturb end to
end: a completion from a spanning-tree basis is consistent whichever reader
takes its sheet, and a mispriced quote is caught on its fundamental cycle.

A check of the report runs in this process through ``arbx.cli.main``. A
check of the process, its exit code and its stderr, runs the installed
``arbx`` script where one is on PATH and ``python -m arbx.cli`` otherwise
(``test_startup.TestProgramEntry`` shows that both entries agree).
"""

import csv
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import arbx
from arbx import io as arbx_io
from helpers import cli_chain, cli_json, deep_ring, mispriced, pa70k_chain, steady, strict_json

DATA = Path(__file__).parent / "data"
SRC = Path(arbx.__file__).resolve().parents[1]
ARBX = [script] if (script := shutil.which("arbx")) else [sys.executable, "-m", "arbx.cli"]


def arbx_child(*argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([*ARBX, *map(str, argv), "--format", "json"], capture_output=True, text=True, env=env, timeout=60)


def relabelled(sheet, out):
    """``sheet`` with good k named gk, two digits at least: g01..g99 sort like 1..99."""
    rows = list(csv.reader(sheet.read_text().splitlines()))
    with open(out, "w", newline="") as fh:
        csv.writer(fh).writerows([rows[0]] + [[f"g{int(a):02d}", f"g{int(b):02d}", r] for a, b, r in rows[1:]])
    return out


def assert_same_reports(a, ref_a, b, ref_b):
    """Two sheets of one market: check and price report ok, with the same figures and prices."""
    (_, check_a), (_, check_b) = (cli_json("check", "--rates", s) for s in (a, b))
    (_, price_a), (_, price_b) = (cli_json("price", "--rates", s, "--ref", r) for s, r in ((a, ref_a), (b, ref_b)))
    assert check_a["verdict"] == check_b["verdict"] == price_a["verdict"] == price_b["verdict"] == "ok"
    keys = ("cycles_checked", "max_abs_log_gain", "n", "edges", "chords")
    assert [check_a["metrics"][k] for k in keys] == [check_b["metrics"][k] for k in keys]
    assert [price_a["metrics"][k] for k in keys[2:]] == [price_b["metrics"][k] for k in keys[2:]]
    assert price_a["data"]["prices_log"] == price_b["data"]["prices_log"]


def test_the_chain_reports_ok_and_lists_no_index_goods(pa50):
    # the fixture's gen, basis and complete reported ok; goods named by
    # their indices are listed by no report
    runs = [
        ("check", "--rates", pa50 / "pa50.csv"),
        ("price", "--rates", pa50 / "pa50.csv", "--ref", "1"),
        ("perturb", "--rates", pa50 / "pa50.csv", "--delta", pa50 / "delta.json", "--exact"),
        ("dim", "--graph", pa50 / "pa50.json"),
        ("basis", "--graph", pa50 / "pa50.json"),
    ]
    for argv in runs:
        code, doc = cli_json(*argv)
        assert code == 0 and doc["verdict"] == "ok" and doc["labels"] == [], argv


def test_exponent_form_rates_are_written_as_their_repr(pa50, tmp_path):
    # basis values spread over +-40 give rates below 1e-4 and from 1e16
    rng = random.Random(1)
    entries = json.loads((pa50 / "pa50_basis.json").read_text())["entries"]
    basis, rates = tmp_path / "basis40.json", tmp_path / "rates40.csv"
    basis.write_text(json.dumps({"entries": entries, "values": [rng.uniform(-40, 40) for _ in entries]}))
    assert cli_json("complete", "--graph", pa50 / "pa50.json", "--basis", basis, "--out", rates)[0] == 0
    texts = [line.rsplit(",", 1)[1] for line in rates.read_text().splitlines()[1:]]
    assert all(t == repr(float(t)) for t in texts), [t for t in texts if t != repr(float(t))][:5]
    assert any(float(t) < 1e-4 for t in texts) and any(float(t) >= 1e16 for t in texts), texts[:5]
    # rates40.csv is one block of the column parser, sent down the kernel's
    # general path by its exponent-form rates; its relabelled copy takes the
    # csv tokenizer; a sheet of named goods lists its labels, one of indices none
    labelled = relabelled(rates, tmp_path / "rates40_labelled.csv")
    assert_same_reports(rates, "1", labelled, "g01")
    labels = [cli_json("check", "--rates", sheet)[1]["labels"] for sheet in (rates, labelled)]
    assert labels == [[], [f"g{k:02d}" for k in range(1, 51)]]


def test_k60_sheets_report_the_same_from_either_reader(tmp_path):
    cli_chain(tmp_path, "k60", "--kind", "complete", "--n", "60")
    k60 = tmp_path / "k60.csv"
    # two blocks of the column parser; a space after the first comma of the
    # last row sends that block to the csv tokenizer, and "e0" after its
    # rate to the kernel's general path, each with the same double
    rows = k60.read_text().splitlines()
    assert len(rows) > 2 and sum(map(len, rows)) > 65536 and "e" not in rows[-1]
    spaced, e0 = tmp_path / "k60_spaced.csv", tmp_path / "k60_e0.csv"
    spaced.write_text("\n".join([*rows[:-1], rows[-1].replace(",", ", ", 1)]) + "\n")
    e0.write_text("\n".join([*rows[:-1], rows[-1] + "e0"]) + "\n")
    for sheet, ref in ((relabelled(k60, tmp_path / "k60_labelled.csv"), "g01"), (spaced, "1"), (e0, "1")):
        assert_same_reports(k60, "1", sheet, ref)


def test_a_quoted_label_keeps_its_newline(tmp_path):
    # a row ends only at a line end outside quotes: "a\nb", ab and c are the
    # three goods of a consistent triangle
    quoted = tmp_path / "quoted.csv"
    quoted.write_bytes(b'src,dst,rate\n"a\nb",ab,2\nab,c,3\nc,"a\nb",0.16666666666666666\n')
    code, doc = cli_json("check", "--rates", quoted)
    assert code == 0 and doc["verdict"] == "ok" and doc["labels"] == ["a\nb", "ab", "c"], doc


@pytest.mark.parametrize("argv, text, error", [
    # a first-order update that leaves a rate at or below zero
    (("perturb", "--rates", DATA / "triangle_ok.csv", "--delta", "{f}"),
     '{"basis": {"entries": [[1, 2], [1, 3]]}, "deltas": [800.0, -0.1]}', "BadParamsError"),
    # a graph or basis pair that is not a pair of integers
    (("basis", "--graph", "{f}"), '{"n": 3, "edges": [[1, 2.5]]}\n', "ParseError"),
    (("basis", "--graph", "{f}"), '{"n": 3, "edges": [[true, 2]]}\n', "ParseError"),
    (("complete", "--graph", "{d}/pa50.json", "--basis", "{f}", "--out", "{f}.csv"),
     '{"entries": [[1.5, 2]], "values": [0.0]}\n', "ParseError"),
], ids=["big_delta", "float_edge", "bool_edge", "float_basis"])
def test_an_error_report_exits_one_with_a_quiet_stderr(pa50, tmp_path, argv, text, error):
    f = tmp_path / "input.json"
    f.write_text(text)
    proc = arbx_child(*(str(a).format(d=pa50, f=f) for a in argv))
    assert proc.returncode == 1 and proc.stderr == ""
    doc = strict_json(proc.stdout)
    assert doc["verdict"] == "error" and doc["data"]["error"] == error, doc


def test_a_tab_indented_input_reports_the_same(pa50, tmp_path):
    # graph, basis and delta files laid out as the writers lay them out are
    # read in C passes; a tab-indented re-dump of each takes json.loads
    files = (("pa50.json", ("n", "edges")), ("pa50_basis.json", ("entries", "values")), ("delta.json", ("basis", "deltas")))
    for name, keys in files:
        data = (pa50 / name).read_bytes()
        arbx_io._members(data, keys)
        tabbed = json.dumps(json.loads(data), indent="\t").encode()
        with pytest.raises(ValueError):
            arbx_io._members(tabbed, keys)
        (tmp_path / name).write_bytes(tabbed)
    # basis, dim, complete --out and perturb report the same, their input
    # digests dropped, and write the same sheet
    sides = []
    for d, out in ((pa50, tmp_path / "rates_fast.csv"), (tmp_path, tmp_path / "rates_tab.csv")):
        runs = [
            ("basis", "--graph", d / "pa50.json"),
            ("dim", "--graph", d / "pa50.json"),
            ("complete", "--graph", d / "pa50.json", "--basis", d / "pa50_basis.json", "--out", out),
            ("perturb", "--rates", pa50 / "pa50.csv", "--delta", d / "delta.json", "--exact"),
        ]
        sides.append([])
        for argv in runs:
            code, doc = cli_json(*argv)
            assert code == 0 and doc["verdict"] == "ok", argv
            doc["data"].pop("out", None)
            del doc["inputs"]
            sides[-1].append(steady(doc))
    assert sides[0] == sides[1]
    assert (tmp_path / "rates_fast.csv").read_bytes() == (tmp_path / "rates_tab.csv").read_bytes() == (pa50 / "pa50.csv").read_bytes()


def test_a_mispriced_chord_is_its_own_witness(pa50, tmp_path):
    # check exits 2 with the chord's closed cycle as the witness, and the
    # script prints the report main returns
    sheet = tmp_path / "mispriced.csv"
    chord = mispriced(pa50 / "pa50.csv", pa50 / "pa50_basis.json", sheet)
    code, doc = cli_json("check", "--rates", sheet)
    cycle = doc["witness"]["cycle"]
    assert code == 2 and doc["verdict"] == "violation" and cycle[0] == cycle[-1] and len(cycle) >= 4, cycle
    assert cycle[:2] == chord, cycle
    proc = arbx_child("check", "--rates", sheet)
    assert proc.returncode == 2 and steady(strict_json(proc.stdout)) == steady(doc)


def test_a_pa_chain_past_two_to_the_sixteen_goods(tmp_path):
    # its adjacency is ordered by int64 keys, not by the 16-bit radix passes
    pa70k_chain(tmp_path)
    (_, check), (_, price) = cli_json("check", "--rates", tmp_path / "pa70k.csv"), cli_json("price", "--rates", tmp_path / "pa70k.csv", "--ref", "1")
    assert check["verdict"] == price["verdict"] == "ok"
    m = check["metrics"]
    assert (m["n"], m["edges"], m["chords"], m["cycles_checked"]) == (70000, 139997, 69998, 209995), m


def test_a_deep_ring_is_decided_from_its_tree(tmp_path):
    # a ring of 3,000 goods has a tree 1,500 deep and one chord; a 1% error
    # on the tree edge 1-2 is found, with that edge on the witness cycle
    ok, bad = tmp_path / "ring_ok.csv", tmp_path / "ring_bad.csv"
    ok.write_text(deep_ring())
    bad.write_text(deep_ring(skew=True))
    (code, doc), (_, price) = cli_json("check", "--rates", ok), cli_json("price", "--rates", ok, "--ref", "1")
    assert code == 0 and doc["verdict"] == price["verdict"] == "ok" and doc["metrics"]["chords"] == 1
    code, doc = cli_json("check", "--rates", bad)
    c = doc["witness"]["cycle"]
    assert code == 2 and doc["verdict"] == "violation" and {(1, 2), (2, 1)} & set(zip(c, c[1:])), c
