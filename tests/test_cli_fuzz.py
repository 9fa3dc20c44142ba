"""Fuzz of the CLI envelope: whatever the input files hold, every run ends
in a report, exits 0, 1 or 2, and ``--format json`` prints strict JSON."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arbx.cli import main

SMALL = settings(max_examples=100, deadline=None)

labels = st.sampled_from(["EUR", "USD", "GBP", "a"])
indices = st.one_of(
    st.integers(1, 4), st.integers(0, 10**12), st.integers(10**12, 10**40)
).map(str)
good_rate = st.floats(0.25, 4.0).map(repr)
bad_rate = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["1", "2", "0.5", "0", "-1", "1e400", "1e-400", "1e308", "nan", "abc", ""]),
)
# listing a branch twice doubles its weight: most rows are well formed, so
# some files get past the parser
rates = st.one_of(good_rate, good_rate, bad_rate)
header = st.sampled_from(["src,dst,rate"] * 4 + ["SRC, dst ,Rate", "src,dst", "a,b,c", ""])


@st.composite
def rates_csv(draw):
    token = draw(st.sampled_from([labels, st.integers(1, 4).map(str), indices]))
    row = st.tuples(token, token, rates).map(",".join)
    rows = draw(st.lists(st.one_of(row, row, st.lists(token, max_size=4).map(",".join)), max_size=10))
    return "\n".join([draw(header), *rows]) + "\n"


small_ints = st.integers(-2, 8)
junk = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.floats(allow_nan=False))
pairs = st.lists(
    st.one_of(st.lists(small_ints, min_size=2, max_size=2), st.lists(small_ints, max_size=3), junk),
    max_size=10,
)
number = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, 1e308, -1e308, 1e-320, 800.0]))
numbers = st.lists(number, max_size=10)


@st.composite
def graph_basis_delta(draw):
    """Graph, basis and delta JSON: junk, or a path graph plus extra edges
    with the path, in random orientations, as the basis of both files."""
    if draw(st.booleans()):
        n = draw(st.one_of(small_ints, st.integers(10**9, 10**18), junk))
        graph = {"n": n, "edges": draw(pairs)}
        basis = {"entries": draw(pairs), "values": draw(st.one_of(numbers, junk))}
        delta = {"basis": {"entries": draw(pairs)}, "deltas": draw(st.one_of(numbers, junk))}
    else:
        n = draw(st.integers(1, 6))
        path = [[v, v + 1] if draw(st.booleans()) else [v + 1, v] for v in range(1, n)]
        extra = draw(st.lists(st.lists(st.integers(1, n), min_size=2, max_size=2), max_size=6))
        values = st.lists(number, min_size=n - 1, max_size=n - 1)
        graph = {"n": n, "edges": path + extra}
        basis = {"entries": path, "values": draw(values)}
        delta = {"basis": {"entries": path}, "deltas": draw(values)}
    return json.dumps(graph), json.dumps(basis), json.dumps(delta)


def _reject(name):
    raise ValueError(f"non-JSON constant {name}")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def run_envelope(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, "--format", "json"])
    assert code in (0, 1, 2)
    doc = json.loads(out.getvalue(), parse_constant=_reject)
    assert doc["verdict"] in ("ok", "violation", "error")
    return code, doc


@SMALL
@given(text=rates_csv(), ref=st.one_of(labels, indices), files=graph_basis_delta())
def test_rates_commands(workdir, text, ref, files):
    delta = files[2]
    csv_path, delta_path = workdir / "rates.csv", workdir / "delta.json"
    csv_path.write_text(text)
    delta_path.write_text(delta)
    for argv in (
        ["check", "--rates", str(csv_path)],
        ["oracle", "--rates", str(csv_path)],
        ["price", "--rates", str(csv_path), "--ref", ref],
        ["perturb", "--rates", str(csv_path), "--delta", str(delta_path)],
        ["perturb", "--rates", str(csv_path), "--delta", str(delta_path), "--exact"],
    ):
        run_envelope(*argv)


@SMALL
@given(files=graph_basis_delta())
def test_graph_commands(workdir, files):
    graph, basis, _ = files
    graph_path, basis_path = workdir / "graph.json", workdir / "basis.json"
    graph_path.write_text(graph)
    basis_path.write_text(basis)
    out = workdir / "out.csv"
    for argv in (
        ["dim", "--graph", str(graph_path)],
        ["basis", "--graph", str(graph_path)],
        ["complete", "--graph", str(graph_path), "--basis", str(basis_path), "--out", str(out)],
        ["complete", "--graph", str(graph_path), "--basis", str(basis_path), "--out", str(out),
         "--multiplicative"],
    ):
        run_envelope(*argv)


@SMALL
@given(files=graph_basis_delta(), ref=indices)
def test_completed_rates_round_trip(workdir, files, ref):
    # rates written by `complete` feed the rates commands
    graph_path, basis_path, delta_path = (workdir / f"2{k}.json" for k in "gbd")
    for path, text in zip((graph_path, basis_path, delta_path), files):
        path.write_text(text)
    out = workdir / "written.csv"
    code, _ = run_envelope(
        "complete", "--graph", str(graph_path), "--basis", str(basis_path), "--out", str(out)
    )
    if code == 0:
        run_envelope("check", "--rates", str(out))
        run_envelope("price", "--rates", str(out), "--ref", ref)
        for mode in ([], ["--exact"]):
            run_envelope("perturb", "--rates", str(out), "--delta", str(delta_path), *mode)
