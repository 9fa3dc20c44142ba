"""The span recorder, and the run metrics ``main`` stamps beside
``elapsed_ms``: the spans of the layers that ran, the process's own peak
resident set, and the size of the market a command read."""

import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

import arbx.cli as cli
import arbx.spans as spans
from arbx import exp_of, generate_graph
from arbx.cli import main
from arbx.io import save_rates
from arbx.spans import recording, span
from helpers import random_log_matrix

DATA = Path(__file__).parent / "data"
TRIANGLE = DATA / "triangle_ok.csv"


def _main_json(capsys, *argv):
    code = main([*argv, "--format", "json"])
    return code, json.loads(capsys.readouterr().out)


def test_nested_spans_count_their_own_time(monkeypatch):
    clock = SimpleNamespace(now=0.0)
    monkeypatch.setattr(spans, "perf_counter", lambda: clock.now)
    with recording() as totals:
        with span("parse_ms"):
            clock.now += 1.0
            with span("tree_ms"):
                clock.now += 0.25
            clock.now += 0.5
        with span("tree_ms"):
            clock.now += 0.125
    assert totals == {"parse_ms": 1500.0, "tree_ms": 375.0}


def test_a_span_outside_a_recording_only_runs_its_block():
    @span("f_ms")
    def f(x):
        return 2 * x

    with span("outside_ms"):
        assert f(3) == 6
    with recording() as totals:
        assert f(4) == 8
    assert set(totals) == {"f_ms"} and totals["f_ms"] >= 0.0
    assert spans._recording.get() is None


def test_main_stamps_the_spans_within_elapsed_ms(capsys):
    code, doc = _main_json(capsys, "check", "--rates", str(TRIANGLE))
    metrics = doc["metrics"]
    assert code == 0 and {"parse_ms", "tree_ms", "check_ms"} <= metrics.keys()
    assert metrics["parse_ms"] + metrics["tree_ms"] + metrics["check_ms"] <= metrics["elapsed_ms"]


def test_complete_and_gen_time_their_writes(capsys, monkeypatch, tmp_path):
    # each writer runs inside write_ms: a writer slowed by 50 ms shows there
    for name in ("save_rates", "save_graph"):
        monkeypatch.setattr(cli, name, lambda *args, write=getattr(cli, name): write(*args) or time.sleep(0.05))
    out = str(tmp_path / "out")
    basis = ["--basis", str(DATA / "k3_basis_mult.json"), "--multiplicative"]
    for argv in (
        ["gen", "--kind", "pa", "--n", "6", "--m", "2", "--seed", "1", "--out", out],
        ["complete", "--graph", str(DATA / "k3.json"), *basis, "--out", out],
    ):
        code, doc = _main_json(capsys, *argv)
        metrics = doc["metrics"]
        assert code == 0 and 50.0 <= metrics["write_ms"] <= metrics["elapsed_ms"], argv


def test_peak_rss_is_the_process_peak_in_mib(capsys, monkeypatch):
    import resource

    _, doc = _main_json(capsys, "check", "--rates", str(TRIANGLE))
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    assert 0 < doc["metrics"]["peak_rss_mb"] <= after / (2**20 if sys.platform == "darwin" else 2**10)
    # ru_maxrss counts KiB on Linux, bytes on macOS
    usage = SimpleNamespace(ru_maxrss=3 * 2**20)
    monkeypatch.setattr(cli, "resource", SimpleNamespace(RUSAGE_SELF=0, getrusage=lambda who: usage))
    for platform, mib in (("linux", 3072.0), ("darwin", 3.0)):
        monkeypatch.setattr(sys, "platform", platform)
        assert cli._peak_rss() == {"peak_rss_mb": mib}


# A parent that holds 256 MiB of its own, then runs one small CLI command:
# Linux carries the parent's ru_maxrss over the child's exec.
_BIG_PARENT = """
import subprocess, sys
held = b"x" * (256 << 20)
proc = subprocess.run([sys.executable, "-m", "arbx.cli", *sys.argv[1:]], capture_output=True, text=True)
sys.stdout.write(proc.stdout)
raise SystemExit(proc.returncode)
"""


def test_peak_rss_is_the_childs_own_peak_not_its_launchers():
    if not Path("/proc/self/status").exists():
        pytest.skip("the status file with VmHWM is Linux's")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["dim", "--graph", str(DATA / "k3.json"), "--format", "json"]
    proc = subprocess.run([sys.executable, "-c", _BIG_PARENT, *argv], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert 0 < json.loads(proc.stdout)["metrics"]["peak_rss_mb"] < 128


def test_peak_rss_is_the_smaller_of_ru_maxrss_and_vmhwm(monkeypatch):
    usage = SimpleNamespace(ru_maxrss=300 * 2**10)  # KiB on Linux
    monkeypatch.setattr(cli, "resource", SimpleNamespace(RUSAGE_SELF=0, getrusage=lambda who: usage))
    monkeypatch.setattr(sys, "platform", "linux")
    status = "Name:\tpython3\nVmPeak:\t  900000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40960 kB\n"
    assert cli._peak_rss(status) == {"peak_rss_mb": 50.0}
    assert cli._peak_rss(status.replace("51200", "409600")) == {"peak_rss_mb": 300.0}
    assert cli._peak_rss("VmRSS:\t   40960 kB\n") == cli._peak_rss() == {"peak_rss_mb": 300.0}


def test_no_peak_rss_without_the_resource_module(capsys, monkeypatch):
    monkeypatch.setattr(cli, "resource", None)
    code, doc = _main_json(capsys, "check", "--rates", str(TRIANGLE))
    assert code == 0 and "elapsed_ms" in doc["metrics"] and "peak_rss_mb" not in doc["metrics"]


def test_the_canonical_and_the_csv_reader_report_the_same_sizes(capsys, tmp_path):
    # g01..g60 sort like 1..60: both sheets make the same graph and tree
    plain, labelled = tmp_path / "k60.csv", tmp_path / "k60_labelled.csv"
    save_rates(plain, exp_of(random_log_matrix(generate_graph("complete", 60), 3)))
    rows = list(csv.reader(plain.read_text().splitlines()))
    with labelled.open("w", newline="") as fh:
        csv.writer(fh).writerows([rows[0]] + [[f"g{int(a):02d}", f"g{int(b):02d}", r] for a, b, r in rows[1:]])
    sizes = {"n": 60, "edges": 1770, "chords": 1711, "cycles_checked": 1770 + 1711}
    for path in (plain, labelled):
        _, doc = _main_json(capsys, "check", "--rates", str(path))
        assert {k: doc["metrics"][k] for k in sizes} == sizes, path


def test_edges_leave_loops_out(capsys, tmp_path):
    path = tmp_path / "looped.csv"
    path.write_text("src,dst,rate\n1,1,1.0\n1,2,2.0\n2,3,4.0\n3,1,0.125\n")
    for command in (("check",), ("price", "--ref", "1")):
        _, doc = _main_json(capsys, command[0], "--rates", str(path), *command[1:])
        assert {k: doc["metrics"][k] for k in ("n", "edges", "chords")} == {"n": 3, "edges": 3, "chords": 1}
    assert doc["metrics"].get("cycles_checked") is None
    _, doc = _main_json(capsys, "check", "--rates", str(path))
    assert doc["metrics"]["cycles_checked"] == 1 + 3 + 1
