"""The CLI writes its report to stdout and nothing to stderr, errors included."""

import errno
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import arbx

DATA = Path(__file__).parent / "data"


def _env():
    # the child imports this arbx
    src = str(Path(arbx.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _cli(*argv):
    """Run the CLI in a child with warnings at their defaults."""
    env = _env()
    env.pop("PYTHONWARNINGS", None)
    return subprocess.run(
        [
            sys.executable, "-c", "import sys; from arbx.cli import main; sys.exit(main())",
            *map(str, argv), "--format", "json",
        ],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_first_order_overflow_prints_no_warning(tmp_path):
    # rate * delta overflows inside numpy; the report names it, numpy must not
    delta = tmp_path / "delta.json"
    delta.write_text(json.dumps({"basis": {"entries": [[1, 2], [1, 3]]}, "deltas": [1e308, 0.0]}))
    proc = _cli("perturb", "--rates", DATA / "triangle_ok.csv", "--delta", delta)
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["data"]["error"] == "OverflowError"
    assert proc.returncode == 1


def test_overflowing_reciprocal_prints_no_warning(tmp_path):
    # 1 / 1e-320 overflows; the loader names the quote before numpy divides
    rates = tmp_path / "rates.csv"
    rates.write_text("src,dst,rate\n1,2,1e-320\n")
    proc = _cli("check", "--rates", rates)
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["data"] == {
        "error": "ParseError",
        "message": f"{rates}:2: rate 1e-320 is too small: its reciprocal overflows",
    }
    assert proc.returncode == 1


K3_FILES = {
    "rates": ("triangle_ok.csv", b"src,dst,rate\n1,2,\xff\n"),
    "graph": ("k3.json", b'{"n": 3, "edges": [[1, 2], [2, 3]], "x": "\xff"}'),
    "basis": ("k3_basis_mult.json", b'{"entries": [[1, 2], [2, 3]], "values": [1, 2], "x": "\xff"}'),
    "delta": (None, b'{"basis": {"entries": [[1, 2], [2, 3]]}, "deltas": [0, 0], "x": "\xff"}'),
}
COMMANDS = {
    "rates": ["check", "--rates", "{rates}"],
    "graph": ["complete", "--graph", "{graph}", "--basis", "{basis}", "--out", "{out}"],
    "basis": ["complete", "--graph", "{graph}", "--basis", "{basis}", "--out", "{out}"],
    "delta": ["perturb", "--rates", "{rates}", "--delta", "{delta}"],
}


@pytest.mark.parametrize("kind", COMMANDS)
def test_invalid_utf8_is_an_error_report(tmp_path, kind):
    files = {name: DATA / good for name, (good, _) in K3_FILES.items() if good}
    files[kind] = tmp_path / f"bad_{kind}"
    files[kind].write_bytes(K3_FILES[kind][1])
    files["out"] = tmp_path / "out.csv"
    proc = _cli(*(arg.format(**files) for arg in COMMANDS[kind]))
    assert proc.stderr == ""
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "error" and doc["data"]["error"] == "ParseError"
    offset = K3_FILES[kind][1].index(b"\xff")
    assert doc["data"]["message"] == f"{files[kind]}: not UTF-8 text: invalid byte at offset {offset}"
    assert proc.returncode == 1


@pytest.mark.parametrize("at, line", [(0, 1), (1, 2), (2, 4)])
def test_a_field_past_the_csv_limit_is_an_error_report(tmp_path, at, line):
    # csv refuses a field of more than 131,072 characters; the row after
    # the quoted newline starts on line 4
    rows = ["src,dst,rate", '"a\nb",c,2', "c,d,3"]
    rows.insert(at, "x" * 140_000 + ",y,2")
    rates = tmp_path / "rates.csv"
    rates.write_text("\n".join(rows) + "\n")
    proc = _cli("check", "--rates", rates)
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["data"] == {
        "error": "ParseError",
        "message": f"{rates}:{line}: field larger than field limit (131072)",
    }
    assert proc.returncode == 1


def test_a_nul_byte_ends_in_a_report(tmp_path):
    # csv reads it as a character from Python 3.11 on and refuses it before
    rates = tmp_path / "rates.csv"
    rates.write_text("src,dst,rate\nx\0y,z,2\n")
    proc = _cli("check", "--rates", rates)
    assert proc.stderr == ""
    doc = json.loads(proc.stdout)
    if sys.version_info < (3, 11):
        assert doc["data"]["error"] == "ParseError" and doc["data"]["message"].startswith(f"{rates}:2: ")
        assert proc.returncode == 1
    else:
        assert doc["labels"] == ["x\0y", "z"] and proc.returncode == 0


def test_oracle_on_a_ring_of_1500_goods_ends_in_a_report(tmp_path):
    # its one cycle is longer than the default recursion limit
    n = 1500
    rates = tmp_path / "ring.csv"
    # one unit doubles on every odd step and halves on every even one
    rows = (f"{v},{v % n + 1},{2.0 if v % 2 else 0.5}\n{v % n + 1},{v},{0.5 if v % 2 else 2.0}\n" for v in range(1, n + 1))
    rates.write_text("src,dst,rate\n" + "".join(rows))
    proc = _cli("oracle", "--rates", rates, "--max-n", 5000)
    assert proc.stderr == ""
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "ok" and doc["metrics"]["cycles_checked"] == n + 1


def _module_cli(*argv, stdout):
    """``python -m arbx.cli`` in a child, the program entry the console script runs."""
    return subprocess.Popen(
        [sys.executable, "-m", "arbx.cli", *map(str, argv), "--format", "json"],
        stdout=stdout, stderr=subprocess.PIPE, env=_env(),
    )


@pytest.fixture(scope="module")
def tree_graph(tmp_path_factory):
    # its basis report, 275 KB, is more than a pipe holds
    from arbx import generate_graph
    from arbx.io import save_graph

    path = tmp_path_factory.mktemp("graph") / "tree.json"
    save_graph(path, generate_graph("tree", 5000, seed=1))
    return path


def test_a_report_into_a_closed_pipe_ends_quietly(tree_graph):
    proc = _module_cli("basis", "--graph", tree_graph, stdout=subprocess.PIPE)
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert stderr == b""  # no traceback


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("graph", ["k4.json", "tree"])
def test_a_report_onto_a_full_device_ends_in_one_line(tree_graph, graph):
    with open("/dev/full", "wb") as full:
        proc = _module_cli("basis", "--graph", tree_graph if graph == "tree" else DATA / graph, stdout=full)
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
    assert stderr.decode() == "arbx: cannot write the report: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [["--help"], ["check", "--help"]], ids=["arbx", "check"])
def test_a_help_onto_a_full_device_ends_in_one_line(argv, unbuffered):
    # unbuffered, the write fails inside argparse; buffered, at the flush
    env = _env()
    env["PYTHONUNBUFFERED"] = unbuffered
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "arbx.cli", *argv], stdout=full, stderr=subprocess.PIPE, env=env, timeout=60)
    assert proc.stderr.decode() == "arbx: cannot write the report: [Errno 28] No space left on device\n"
    assert proc.returncode == 1


@pytest.mark.skipif(shutil.which("sh") is None, reason="no POSIX shell to close fd 1")
@pytest.mark.parametrize("command", ["check", "help", "complete"])
def test_a_closed_stdout_ends_in_one_line(tmp_path, command):
    # run as `arbx ... >&-`: no report or help can be written, and no command
    # runs, so no file it would write takes the free fd 1
    out = tmp_path / "out.csv"
    argv = {
        "check": ["check", "--rates", DATA / "triangle_ok.csv"],
        "help": ["--help"],
        "complete": ["complete", "--graph", DATA / "k3.json", "--basis", DATA / "k3_basis_mult.json", "--multiplicative", "--out", out],
    }[command]
    proc = subprocess.run(
        ["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "arbx.cli", *map(str, argv)],
        stderr=subprocess.PIPE, env=_env(), timeout=60,
    )
    assert proc.stderr.decode() == f"arbx: cannot write the report: [Errno {errno.EBADF}] {os.strerror(errno.EBADF)}\n"
    assert proc.returncode == 1
    assert not out.exists()
