"""Statements that no other test runs: rare errors of the loaders, the
library and the CLI, each reached by the smallest input that takes it."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import arbx
from arbx import (
    BadParamsError,
    CheckResult,
    GraphMismatchError,
    LogRateMatrix,
    NotAWalkError,
    OracleSizeError,
    RateMatrix,
    canonical_basis,
    cycle_log_gain,
    decompose,
    dimension_by_rank,
    generate_graph,
    new_graph,
)
from arbx.errors import ParseError
from arbx.io import file_digest, load_graph, load_perturbation, load_rates
from helpers import reference_load_rates

DATA = Path(__file__).parent / "data"


def test_file_digest_is_the_sha256_of_the_bytes():
    path = DATA / "triangle_ok.csv"
    assert file_digest(path) == "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest()


def test_edges_that_are_no_list_are_a_parse_error(tmp_path):
    path = tmp_path / "g.json"
    path.write_text('{"n": 3, "edges": 5}')
    with pytest.raises(ParseError, match="edges must be a list of"):
        load_graph(path)


@pytest.mark.parametrize("basis", [{"values": [0.0]}, 5])
def test_a_perturbation_basis_needs_entries(tmp_path, basis):
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"basis": basis, "deltas": [0.0]}))
    with pytest.raises(ParseError, match="'basis' needs 'entries'"):
        load_perturbation(path, new_graph(2, [(1, 2)]))


def test_an_index_written_with_an_exponent_is_a_label(tmp_path):
    # a canonical layout on a path of 100 goods, but index 100 reads "1e2":
    # as long as "100", so only the rule that an index is its own digits can
    # send the sheet to the tokenizer, which reads a label
    rows = [f"{k},{k + 1},2.0\n{k + 1},{k},0.5\n" for k in range(1, 100)]
    path = tmp_path / "r.csv"
    path.write_text("src,dst,rate\n" + "".join(rows).replace("100", "1e2"))
    got, want = load_rates(path), reference_load_rates(path)
    assert "1e2" in got.labels and got.labels == want.labels
    assert got.matrix.graph == want.matrix.graph and got.filled == want.filled == ()
    assert np.array_equal(got.matrix.values, want.matrix.values)


def test_decompose_refuses_a_basis_of_another_graph():
    spec = canonical_basis(new_graph(3, [(1, 2), (2, 3)]))
    e = LogRateMatrix.from_values(new_graph(3, [(1, 2), (1, 3)]), {})
    with pytest.raises(GraphMismatchError):
        decompose(e, spec)


def test_dimension_by_rank_refuses_more_goods_than_max_n():
    with pytest.raises(OracleSizeError, match="4 vertices exceeds the oracle limit of 3"):
        dimension_by_rank(generate_graph("tree", 4), max_n=3)


def test_a_dense_matrix_of_the_wrong_shape_is_refused():
    with pytest.raises(BadParamsError, match="entries must be 3x3, got shape"):
        RateMatrix(new_graph(3, [(1, 2), (2, 3)]), np.ones((2, 2)))


def test_a_one_vertex_walk_has_no_step():
    e = LogRateMatrix.from_values(new_graph(2, [(1, 2)]), {})
    with pytest.raises(NotAWalkError, match="at least one step"):
        cycle_log_gain(e, [1])


def test_a_check_result_is_true_when_ok():
    assert CheckResult(True, None, 0, 0.0) and not CheckResult(False, None, 0, 0.0)


def test_edge_lookup_refuses_goods_whose_keys_leave_int64():
    g = new_graph(3_100_000_000, [])
    with pytest.raises(BadParamsError, match="edge lookup supports at most"):
        g.has_edge(1, 2)


def test_generate_graph_needs_a_good():
    with pytest.raises(BadParamsError, match="vertex count must be >= 1"):
        generate_graph("tree", 0)


def test_a_gnp_draw_that_never_connects_is_refused():
    with pytest.raises(BadParamsError, match="no connected G"):
        generate_graph("gnp", 40, p=0.01)


def test_a_cli_without_resource_reports_no_peak_rss():
    src = str(Path(arbx.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys; sys.modules['resource'] = None; import arbx.cli; "
        f"sys.exit(arbx.cli.main(['check', '--rates', {str(DATA / 'triangle_ok.csv')!r}, '--format', 'json']))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0 and proc.stderr == ""
    metrics = json.loads(proc.stdout)["metrics"]
    assert "elapsed_ms" in metrics and "peak_rss_mb" not in metrics


# an empty rate in a canonical layout: the column reader's guard sends the
# sheet to the tokenizer, which names the row; a last row without its
# newline ends at the end of the file
EMPTY_RATE = [("src,dst,rate\n1,2,\n2,1,0.5\n", 2), ("src,dst,rate\n1,2,2\n2,1,", 3)]


@pytest.mark.parametrize("text, line", EMPTY_RATE)
def test_an_empty_rate_is_a_parse_error(tmp_path, text, line):
    path = tmp_path / "r.csv"
    path.write_text(text)
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}:{line}: rate '' is not a number$"):
        load_rates(path)


@pytest.mark.parametrize("text, line", EMPTY_RATE)
def test_an_empty_rate_ends_in_an_error_report(tmp_path, text, line):
    path = tmp_path / "r.csv"
    path.write_text(text)
    src = str(Path(arbx.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = ["-m", "arbx.cli", "check", "--rates", str(path), "--format", "json"]
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 1 and proc.stderr == ""
    assert json.loads(proc.stdout)["data"] == {"error": "ParseError", "message": f"{path}:{line}: rate '' is not a number"}


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_log_rates_must_be_finite(bad):
    g = new_graph(3, [(1, 2), (2, 3)])
    dense = np.zeros((3, 3))
    dense[2, 1] = bad  # the edge coordinate (3, 2)
    with pytest.raises(BadParamsError, match="^log rates must be finite$"):
        LogRateMatrix(g, dense)
    with pytest.raises(BadParamsError, match="^log rates must be finite$"):
        LogRateMatrix.from_values(g, {(1, 2): 0.5, (3, 2): bad})
