"""Peak memory of the check and price path, the batched chord climb, and
the writers and report encoders.

The rates reader drops each array once it is read and takes its input's
bytes over, so that a check or price run holds at any moment only what its
next step reads; the chord climb records its tree steps in batches of at
most ``CHORD_STEPS`` per good and per directed edge; a writer or report
encoder holds one cell per label and one block of its output. Peaks are
traced by tracemalloc, in process; a CLI child whose address space is capped below
what its check needs ends in the MemoryError report.
"""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import arbx
import arbx.exchange as exchange
import arbx.io as arbx_io
from arbx import exp_of, generate_graph, log_of
from arbx.cli import main
from arbx.exchange import LogRateMatrix, _chord_gains, check_no_arbitrage
from arbx.graph import _connected_tree, _csr, new_graph
from arbx.io import RunReport, _graph_of, _rates_of, load_rates, save_rates
from helpers import (
    random_log_matrix,
    reference_check_no_arbitrage,
    reference_chord_gains,
    reference_csr,
    reference_load_rates,
    reference_rates_text,
    same_bits,
)

DATA = Path(__file__).parent / "data"
MiB = 2**20


def _peak(fn, *args):
    """``fn(*args)`` and the peak it traced above what was traced before."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def _grid(side: int):
    n = side * side
    right = [(v, v + 1) for v in range(1, n + 1) if v % side]
    down = [(v, v + side) for v in range(1, n - side + 1)]
    return new_graph(n, right + down)


@pytest.fixture(scope="module")
def k250(tmp_path_factory):
    path = tmp_path_factory.mktemp("k250") / "rates.csv"
    save_rates(path, exp_of(random_log_matrix(generate_graph("complete", 250), 7)))
    return path


@pytest.mark.parametrize("command", [["check"], ["price", "--ref", "1"]])
def test_check_and_price_of_k250_peak_at_5_5_mib(k250, command, capsys):
    argv = [command[0], "--rates", str(k250), *command[1:], "--format", "json"]
    assert main(argv) == 0  # modules and caches of a first run are not the run's
    code, peak = _peak(main, argv)
    capsys.readouterr()
    assert code == 0 and peak <= 5.5 * MiB, peak / MiB


def test_load_rates_peaks_at_100_bytes_per_row(tmp_path):
    path = tmp_path / "pa.csv"
    g = generate_graph("pa", 20_000, m=3, seed=11)
    save_rates(path, exp_of(random_log_matrix(g, 11)))
    rows = 2 * g._lo.size
    load_rates(path)
    rates, peak = _peak(load_rates, path)
    assert rates.matrix.graph == g and peak <= 100 * rows, peak / rows


# a sheet, and the bound of its load's peak: a fixed size plus bytes a row
LOAD_PEAKS = {
    "K250": ("complete", 250, 3.0 * MiB, 0),
    "pa n=20,000": ("pa", 20_000, 0, 56),
    "pa n=300": ("pa", 300, 0.35 * MiB, 0),
}


@pytest.mark.parametrize("kind, n, fixed, per_row", LOAD_PEAKS.values(), ids=LOAD_PEAKS.keys())
def test_load_rates_peaks_at_its_bytes_and_one_key_and_rate_per_quote(tmp_path, kind, n, fixed, per_row):
    # the bytes (26 to 29 B a row here) are freed once no screen can send
    # the file to the tokenizer, and a block's temporaries are sized by the
    # block; the parse peaked at 3.98 MiB, 72 B a row and 0.52 MiB before
    path = tmp_path / "rates.csv"
    g = generate_graph(kind, n, m=3, seed=11) if kind == "pa" else generate_graph(kind, n)
    save_rates(path, exp_of(random_log_matrix(g, 7 if kind == "complete" else 11)))
    rows = load_rates(path).matrix.graph._edge_count
    _, peak = _peak(load_rates, path)
    assert peak <= fixed + per_row * rows, (peak / MiB, peak / rows)


@pytest.mark.parametrize("side", [150, 300])
def test_check_of_a_grid_peaks_linear_in_goods_and_edges(side):
    g = _grid(side)
    e = random_log_matrix(g, side)
    _connected_tree(g)  # cached, as a loaded sheet's tree is
    result, peak = _peak(check_no_arbitrage, e)
    assert result.ok and result.cycles_checked == 2 * g._lo.size - g.n + 1
    assert peak <= 128 * (g.n + g._lo.size), peak / (g.n + g._lo.size)


# A child that may grow its address space by CAP_MARGIN after importing the
# CLI; it reads its own size where Linux shows it.
_CAPPED_CHILD = """
import resource, sys
import arbx.cli
with open("/proc/self/statm") as f:
    cap = int(f.read().split()[0]) * resource.getpagesize() + %d
resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
raise SystemExit(arbx.cli.main(sys.argv[1:]))
"""
CAP_MARGIN = 16 * MiB


def test_check_beyond_its_address_space_ends_in_the_error_envelope(tmp_path):
    # the check of a 300 x 300 grid needs 32 to 64 MiB more than the import
    pytest.importorskip("resource")
    if not Path("/proc/self/statm").exists():
        pytest.skip("the child reads its address space from /proc/self/statm")
    side, n = 300, 300 * 300
    rows = ["src,dst,rate"]
    for v in range(1, n + 1):
        for w in ((v + 1,) if v % side else ()) + ((v + side,) if v + side <= n else ()):
            rows.append(f"{v},{w},2.0\n{w},{v},0.5")
    sheet = tmp_path / "grid.csv"
    sheet.write_text("\n".join(rows) + "\n")
    src = str(Path(arbx.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_CHILD % CAP_MARGIN, "check", "--rates", str(sheet), "--format", "json"],
        capture_output=True, text=True, env=env, timeout=30,
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "error" and doc["data"]["error"] == "MemoryError"


# --- the batched climb against the lock-step one


def _climb_graphs():
    yield "grid40", _grid(40)
    yield "ring500", new_graph(500, [(v, v % 500 + 1) for v in range(1, 501)])
    yield "path300", new_graph(300, [(v, v + 1) for v in range(1, 300)])
    yield "pa2000", generate_graph("pa", 2000, m=3, seed=5)
    yield "K40", generate_graph("complete", 40)
    yield "one", new_graph(1, [(1, 1)])


CLIMB_GRAPHS = dict(_climb_graphs())


def _chords(g):
    t = _connected_tree(g)
    a, b = g._lo, g._hi
    chords = np.flatnonzero((t.parent[a] != b) & (t.parent[b] != a))
    return t, chords, a[chords], b[chords]


@pytest.mark.parametrize("steps", [0, 1, exchange.CHORD_STEPS])
@pytest.mark.parametrize("name", CLIMB_GRAPHS)
def test_batched_gains_equal_the_lock_step_climb(monkeypatch, name, steps):
    g = CLIMB_GRAPHS[name]
    batches = []
    climb = exchange._climb_chords
    monkeypatch.setattr(exchange, "CHORD_STEPS", steps)
    monkeypatch.setattr(exchange, "_climb_chords", lambda gains, *rest: batches.append(gains.size) or climb(gains, *rest))
    rng = np.random.default_rng(steps)
    t, chords, k, m = _chords(g)
    # values of many magnitudes, so that the order of every addition shows
    v = rng.standard_normal(g._edge_count) * 10.0 ** rng.integers(-8, 9, g._edge_count)
    got = _chord_gains(v, t, chords, k, m)
    assert same_bits(got, reference_chord_gains(v, t, chords, k, m))
    assert sum(batches) == chords.size
    # a batch takes one chord at least, and more while its climbs fit the budget
    depths = t.depth[k]
    if steps == 0:
        assert len(batches) >= np.count_nonzero(depths)
    elif depths.sum() > steps * (g.n + g._edge_count):
        assert len(batches) > 1


def test_a_small_budget_keeps_the_verdict_and_the_witness(monkeypatch):
    g = _grid(30)
    e = random_log_matrix(g, 30)
    t, chords, k, m = _chords(g)
    bad = e.with_entry(int(k[400]) + 1, int(m[400]) + 1, e.value(int(k[400]) + 1, int(m[400]) + 1) + 1e-6)
    for steps in (0, 1):
        monkeypatch.setattr(exchange, "CHORD_STEPS", steps)
        for matrix in (e, bad, LogRateMatrix._of(g, -e.values)):
            assert check_no_arbitrage(matrix) == reference_check_no_arbitrage(matrix)
    assert not check_no_arbitrage(bad).ok


def test_check_of_a_grid_whose_chords_all_tie_peaks_linear_in_goods_and_edges():
    # on a tree of zero log quotes, every chord quoted +1e-3 forward and
    # -1e-3 back: each chord is a witness candidate and climbs, in batches;
    # all in one batch it peaked at 29 MB, about 430 B per good and edge
    g = _grid(150)
    _, chords, _, _ = _chords(g)
    v = np.zeros(g._edge_count)
    v[chords], v[g._lo.size + chords] = 1e-3, -1e-3
    result, peak = _peak(check_no_arbitrage, LogRateMatrix._of(g, v))
    assert not result.ok and result.witness.log_gain == 1e-3 == result.max_abs_log_gain
    assert result.cycles_checked == 2 * g._lo.size - g.n + 1 == 66_901
    assert peak <= 128 * (g.n + g._lo.size), peak / (g.n + g._lo.size)


# --- the adjacency of `_csr` (a lexsort up to 2^16 goods, an argsort above) against the sorted keys


@pytest.mark.parametrize("name", ["path70000", "pa100000"])
def test_adjacency_equals_the_sorted_key_reference(name):
    if name == "path70000":  # above 2^16 goods: the argsort
        g = new_graph(70_000, [(v, v + 1) for v in range(1, 70_000)])
    else:
        g = generate_graph("pa", 100_000, m=3, seed=1)
    for a, b in ((g._lo, g._hi), (g._hi, g._lo)):  # a graph's own pairs, then others
        got, want = _csr(g.n, a, b), reference_csr(g.n, a, b)
        assert all(x.dtype == y.dtype and np.array_equal(x, y) for x, y in zip(got, want))


# --- the reader: filled entries built when read, bytes taken over


def test_filled_is_built_when_first_read(tmp_path, capsys):
    path = tmp_path / "one_sided.csv"
    path.write_text("src,dst,rate\n1,2,2.0\n2,3,4.0\n3,1,0.125\n1,3,8.0\n")
    rates = load_rates(path)
    assert "filled" not in vars(rates)
    assert rates.filled == ((2, 1), (3, 2)) == reference_load_rates(path).filled
    assert "filled" in vars(rates) and rates.filled is rates.filled
    assert main(["check", "--rates", str(path), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["data"]["filled_reciprocals"] == [[2, 1], [3, 2]]


def test_the_parsers_take_the_bytes_over():
    held = [(DATA / "triangle_ok.csv").read_bytes()]
    rates = _rates_of(DATA / "triangle_ok.csv", held, 1e-9)
    assert held == [] and log_of(rates.matrix).n == 3
    held = [(DATA / "k3.json").read_bytes()]
    assert _graph_of(DATA / "k3.json", held).n == 3 and held == []


# --- the writers and report encoders: one label cell per good, one block


def _cell_list_bytes(cells) -> int:
    return sys.getsizeof(cells) + sum(map(sys.getsizeof, cells))


@pytest.mark.parametrize("named", [False, True])
def test_save_rates_peaks_at_one_label_cell_list_and_one_block(tmp_path, named):
    g = generate_graph("pa", 20_000, m=3, seed=11)
    r = exp_of(random_log_matrix(g, 11))
    labels = tuple(f"g{k:06d}" for k in range(1, g.n + 1)) if named else None
    save_rates(tmp_path / "r.csv", r, labels)  # the graph's cached edge ends are not the write's
    _, peak = _peak(save_rates, tmp_path / "r.csv", r, labels)
    cells = list(labels) if named else list(map(str, range(1, g.n + 1)))
    # one CSV cell per label, the row order and the pair ids it is built
    # from (8 B a row each) and one block of rows; the label table, the csv
    # writer's rows and a third row-long array took 2.2 to 3.3 MB more here
    assert peak <= _cell_list_bytes(cells) + 16 * g._edge_count + 512 * arbx_io._BLOCK, peak


def test_report_pieces_of_1e5_labels_and_prices_peak_at_a_few_blocks():
    n = 100_000
    prices = np.random.default_rng(1).uniform(-3.0, 3.0, n).tolist()
    data = {"reference": "1", "prices_log": prices, "prices_multiplicative": [math.exp(p) for p in prices]}
    report = RunReport("price", "ok", None, {"n": n}, {}, tuple(map(str, range(1, n + 1))), data)
    for fmt, held in (("json", 18 * n), ("text", 0)):
        # consumed a piece at a time, as main writes them
        size, peak = _peak(lambda: sum(map(len, report._chunks(fmt))))
        assert size == len(report.to_json() if fmt == "json" else report.to_text())
        # json: the two lists copied with ±inf as None (8 B an item and up
        # to an eighth more spare); each list encoded whole took 8.5 (json)
        # and 9.1 MB (text) here
        assert peak <= held + 256 * arbx_io._BLOCK, (fmt, peak)


def test_json_pieces_of_a_1e5_price_report_hold_no_copy_of_its_lists():
    n = 100_000
    prices = np.random.default_rng(2).uniform(-3.0, 3.0, n).tolist()
    beyond = [math.inf if k % 9_999 == 0 else math.exp(p) for k, p in enumerate(prices)]
    data = {"reference": "1", "prices_log": prices, "prices_multiplicative": beyond, "nested": [[1.0, -math.inf]]}
    report = RunReport("price", "ok", None, {"n": n}, {}, tuple(map(str, range(1, n + 1))), data)
    size, peak = _peak(lambda: sum(map(len, report._chunks("json"))))
    # ±inf is null a block at a time; the lists copied whole with ±inf as
    # None took 1.7 MB here
    assert size == len(report.to_json()) and peak <= 256 * arbx_io._BLOCK, peak
    doc = report.to_dict()["data"]
    assert doc["prices_log"] == prices and doc["nested"] == [[1.0, None]]
    assert doc["prices_multiplicative"][::9_999] == [None] * 11 and None not in doc["prices_multiplicative"][1:9_999]


QUOTED = ["a,b", 'q"t', "cr\rx", "lf\ny", "cr\r\nlf", "sp ace", " lead", '"', "", "é€", "plain"]


@pytest.mark.parametrize("block", [1, 2, 3, 1024])
def test_save_rates_of_quoted_labels_is_csv_writers_text_at_every_block(tmp_path, monkeypatch, block):
    g = new_graph(len(QUOTED), [(1, 1), *((v, v + 1) for v in range(1, len(QUOTED))), (1, 5), (3, 3), (2, 9)])
    r = exp_of(random_log_matrix(g, 5))
    monkeypatch.setattr(arbx_io, "_BLOCK", block)
    for labels in (QUOTED, tuple(QUOTED), None):
        save_rates(tmp_path / "r.csv", r, labels)
        assert (tmp_path / "r.csv").read_bytes() == reference_rates_text(r, labels).encode("utf-8")


def test_price_renders_its_prices_from_the_array_as_its_lists_would(tmp_path):
    # a path of 20,000 goods quoted at 2: from the middle good the
    # multiplicative prices run from 0.0 up to past the float range (null)
    from arbx import price_vector
    from arbx.cli import build_parser

    n, ref = 20_000, 10_000
    path = tmp_path / "path.csv"
    path.write_text("src,dst,rate\n" + "".join(f"{v},{v + 1},2\n" for v in range(1, n)))
    args = build_parser().parse_args(["price", "--rates", str(path), "--ref", str(ref)])
    args.func(args)  # modules and caches of a first run are not the run's
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = args.func(args)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    prices = price_vector(log_of(load_rates(path).matrix), ref).prices
    lists = {"reference": str(ref), "prices_log": list(prices), "prices_multiplicative": [exchange._exp_or_inf(p) for p in prices]}
    as_lists = RunReport(report.command, report.verdict, None, report.metrics, report.inputs, report.labels, lists)
    assert report.to_json() == as_lists.to_json() and report.to_text() == as_lists.to_text()
    assert "null" in report.to_json() and " inf " in report.to_text()
    # the report holds the price array (8 B a good), where its two lists of
    # floats held 54 B a good here
    assert held <= 8 * n + 16_384, held / n
    for fmt in ("json", "text"):
        _, peak = _peak(lambda: sum(map(len, report._chunks(fmt))))
        assert peak <= 256 * arbx_io._BLOCK, (fmt, peak)
