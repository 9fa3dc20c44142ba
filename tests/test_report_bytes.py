"""The writers render byte for byte what they rendered through json.dumps and
csv.writer: every report, graph file and rates file."""

import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arbx import ArbitrageWitness, RateMatrix, generate_graph, new_graph
from arbx.cli import build_parser, main
from arbx.graph import MarketGraph
from arbx.io import RunReport, _json_text, save_graph, save_rates
from helpers import reference_graph_text, reference_rates_text

DATA = Path(__file__).parent / "data"


def dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def commands(tmp_path):
    """(argv, produces a report without error) for every command on the test
    data, error reports, labels and witnesses among them."""
    ok, bad = str(DATA / "triangle_ok.csv"), str(DATA / "triangle_bad.csv")
    labeled, k3, k4 = str(DATA / "triangle_labeled.csv"), str(DATA / "k3.json"), str(DATA / "k4.json")
    delta = write(tmp_path, "d.json", json.dumps({"basis": {"entries": [[1, 2], [1, 3]]}, "deltas": [0.25, -0.1]}))
    huge = write(tmp_path, "h.json", json.dumps({"basis": {"entries": [[1, 2], [1, 3]]}, "deltas": [800.0, -0.1]}))
    # a cycle gain beyond the float range: the witness writes its gain as null
    beyond = write(tmp_path, "beyond.csv", "src,dst,rate\n1,2,1e200\n2,3,1e200\n3,1,1e200\n")
    # a price beyond the float range: written as null
    chain = write(tmp_path, "chain.csv", "src,dst,rate\n1,2,1e200\n2,3,1e200\n")
    quoted = write(tmp_path, "quoted.csv",
                   'src,dst,rate\n"a,b","c""d",2\n"c""d",é\\\x1f,3\né\\\x1f,"a,b",0.16666666666666666\n')
    out = str(tmp_path / "out.csv")
    return [
        (["check", "--rates", ok], True),
        (["check", "--rates", bad], True),
        (["check", "--rates", labeled], True),
        (["check", "--rates", beyond], True),
        (["check", "--rates", quoted], True),
        (["check", "--rates", str(tmp_path / "missing.csv")], False),
        (["check", "--rates", ok, "--tol", "-1"], False),
        (["oracle", "--rates", bad], True),
        (["price", "--rates", labeled, "--ref", "USD"], True),
        (["price", "--rates", quoted, "--ref", "a,b"], True),
        (["price", "--rates", chain, "--ref", "1"], True),
        (["price", "--rates", labeled, "--ref", "JPY"], False),
        (["price", "--rates", bad, "--ref", "1"], False),
        (["perturb", "--rates", ok, "--delta", delta], True),
        (["perturb", "--rates", ok, "--delta", delta, "--exact"], True),
        (["perturb", "--rates", ok, "--delta", huge, "--exact"], False),
        (["perturb", "--rates", ok, "--delta", huge], False),
        (["basis", "--graph", k3], True),
        (["basis", "--graph", k4], True),
        (["dim", "--graph", k4], True),
        (["complete", "--graph", k3, "--basis", str(DATA / "k3_basis_mult.json"), "--multiplicative",
          "--out", out], True),
        (["complete", "--graph", k3, "--basis", k3, "--out", out], False),
        (["gen", "--kind", "complete", "--n", "5", "--seed", "1", "--out", str(tmp_path / "g.json")], True),
        (["gen", "--kind", "pa", "--n", "12", "--m", "2", "--seed", "1", "--out", str(tmp_path / "g.json")], True),
        (["gen", "--kind", "pa", "--n", "12", "--seed", "1", "--out", str(tmp_path / "g.json")], False),
    ]


def test_every_printed_report_is_json_dumps_of_itself(capsys, tmp_path):
    for argv, _ in commands(tmp_path):
        main(argv + ["--format", "json"])
        out = capsys.readouterr().out
        assert out.endswith("\n")
        assert out[:-1] == dumps(json.loads(out)), argv


def test_to_json_is_json_dumps_of_to_dict(tmp_path):
    seen = set()
    for argv, succeeds in commands(tmp_path):
        if succeeds:
            args = build_parser().parse_args(argv)
            report = args.func(args)
            seen.add(report.verdict)
            assert report.to_json() == dumps(report.to_dict()), argv
    assert seen == {"ok", "violation"}


def test_error_report_bytes():
    report = RunReport(command="check", verdict="error", witness=None, metrics={}, inputs={}, labels=(),
                       data={"error": "ParseError", "message": 'x.csv:2: rate "\x1f,é" is not a number'})
    assert report.to_json() == dumps(report.to_dict())


GRAPHS = [
    new_graph(1, []),
    new_graph(1, [{1}]),
    new_graph(3, [(1, 2), (2, 3), (1, 3)]),
    new_graph(4, [(3, 4), {3}, (1, 2), {1}, (2, 3), {4}]),
    MarketGraph(4, frozenset({(1, 2), (2, 2), (2, 4), (3, 4)})),
    *(generate_graph(kind, 30, seed=s, **kw)
      for kind, kw in [("complete", {}), ("tree", {}), ("gnp", {"p": 0.2}), ("pa", {"m": 3})]
      for s in (1, 2)),
]


@pytest.mark.parametrize("g", GRAPHS)
def test_save_graph_bytes(g, tmp_path):
    path = tmp_path / "g.json"
    save_graph(path, g)
    assert path.read_bytes() == reference_graph_text(g).encode("utf-8")


LABELS = st.text(st.characters(codec="utf-8"), max_size=6) | st.sampled_from(
    ["", " ", ",", '"', 'a"b', "a,b", "a\nb", "a\rb", "\x1f", "\\", "é", "€", " pad "]
)


@settings(max_examples=200)
@given(
    g=st.sampled_from(GRAPHS[:5] + [generate_graph("pa", 12, m=2, seed=3)]),
    labels=st.none() | st.lists(LABELS, min_size=12, max_size=12),
    data=st.data(),
)
def test_save_rates_bytes(g, labels, data, tmp_path_factory):
    rate = st.floats(min_value=5e-324, max_value=1e308, allow_nan=False, allow_infinity=False)
    quotes = {}
    for i, j in sorted(g.edges):
        quotes[(i, j)] = data.draw(rate)
        quotes[(j, i)] = data.draw(rate)
    r = RateMatrix.from_quotes(g, quotes)
    names = None if labels is None else labels[: g.n]
    path = tmp_path_factory.mktemp("rates") / "r.csv"
    save_rates(path, r, names)
    assert path.read_bytes() == reference_rates_text(r, names).encode("utf-8")


SPECIAL_FLOATS = st.sampled_from(
    [math.inf, -math.inf, math.nan, -0.0, 0.0, 1e-300, 1e16, 5e-324, 1.7976931348623157e308]
)
SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats() | SPECIAL_FLOATS
    | st.text(st.characters(codec="utf-8")) | st.sampled_from(["", "\x1f", "\x1e", "]\x1f[", "[]", '"', "\\", ",\n", "é€"])
)
ROWS = st.lists(st.lists(SCALARS, max_size=4), max_size=6)
VALUES = st.recursive(
    SCALARS | ROWS,
    lambda inner: st.lists(inner, max_size=5)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(st.characters(codec="utf-8"), max_size=5), inner, max_size=5),
    max_leaves=40,
)


@settings(max_examples=300)
@given(value=VALUES)
def test_json_text_is_json_dumps(value):
    assert _json_text(value) == dumps(value)


@settings(max_examples=100)
@given(
    labels=st.lists(LABELS, max_size=5),
    data=st.dictionaries(st.text(max_size=8), VALUES, max_size=4),
    rows=ROWS,
    floats=st.lists(st.floats() | SPECIAL_FLOATS, max_size=8),
    gain=st.floats() | SPECIAL_FLOATS,
    witness=st.booleans(),
)
def test_generated_report_to_json_is_json_dumps(labels, data, rows, floats, gain, witness):
    report = RunReport(
        command="check",
        verdict="violation" if witness else "ok",
        witness=ArbitrageWitness(cycle=(1, 2, 1), log_gain=1.5, multiplicative_gain=gain) if witness else None,
        metrics={"elapsed_ms": 1.5, "cycles_checked": 3},
        inputs={"rates": "sha256:00"},
        labels=tuple(labels),
        data={**data, "rows": rows, "prices": floats},
    )
    assert report.to_json() == dumps(report.to_dict())
