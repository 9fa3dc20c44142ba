import csv
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import arbx
from arbx import BadParamsError, canonical_basis, generate_graph, log_of, price_vector
from arbx.cli import main
from arbx.io import RunReport, load_graph, load_rates, save_graph, save_rates
from helpers import cli_chain, mispriced, steady

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

REPORT_KEYS = {"command", "verdict", "witness", "metrics", "inputs", "labels", "data"}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


class TestCheck:
    def test_consistent_triangle_exits_zero(self, capsys):
        code, _ = run(capsys, "check", "--rates", str(DATA / "triangle_ok.csv"))
        assert code == 0

    def test_violation_exits_two_with_witness(self, capsys):
        code, doc = run_json(capsys, "check", "--rates", str(DATA / "triangle_bad.csv"))
        assert code == 2
        assert doc["verdict"] == "violation"
        assert doc["witness"]["cycle"] == [2, 3, 1, 2]
        assert doc["witness"]["multiplicative_gain"] == pytest.approx(1.2)

    def test_zero_rate_is_parse_error(self, capsys, tmp_path):
        bad = tmp_path / "r.csv"
        bad.write_text("src,dst,rate\n1,2,0\n")
        code, doc = run_json(capsys, "check", "--rates", str(bad))
        assert code == 1
        assert doc["verdict"] == "error"
        assert doc["data"]["error"] == "ParseError"

    def test_missing_file(self, capsys):
        code, doc = run_json(capsys, "check", "--rates", "no-such-file.csv")
        assert code == 1
        assert doc["data"]["error"] == "ParseError"

    def test_reciprocal_conflict(self, capsys, tmp_path):
        bad = tmp_path / "r.csv"
        bad.write_text("src,dst,rate\n1,2,2\n2,1,0.6\n2,3,3\n")
        code, doc = run_json(capsys, "check", "--rates", str(bad))
        assert code == 1
        assert doc["data"]["error"] == "ReciprocalConflictError"

    def test_duplicate_quote(self, capsys, tmp_path):
        bad = tmp_path / "r.csv"
        bad.write_text("src,dst,rate\n1,2,2\n1,2,2\n")
        code, doc = run_json(capsys, "check", "--rates", str(bad))
        assert code == 1
        assert doc["data"]["error"] == "ParseError"

    def test_filled_reciprocals_flagged(self, capsys):
        code, doc = run_json(capsys, "check", "--rates", str(DATA / "triangle_bad.csv"))
        assert sorted(doc["data"]["filled_reciprocals"]) == [[1, 3], [2, 1], [3, 2]]

    def test_labeled_files(self, capsys):
        code, doc = run_json(capsys, "check", "--rates", str(DATA / "triangle_labeled.csv"))
        assert code == 0
        assert doc["labels"] == ["EUR", "GBP", "USD"]

    def test_disconnected_rates(self, capsys, tmp_path):
        f = tmp_path / "r.csv"
        f.write_text("src,dst,rate\n1,2,2\n3,4,5\n")
        code, doc = run_json(capsys, "check", "--rates", str(f))
        assert code == 1
        assert doc["data"]["error"] == "NotConnectedError"

    @pytest.mark.parametrize(
        "command",
        [["check"], ["price", "--ref", "1"], ["perturb", "--delta", "no-such-delta.json"], ["oracle"]],
    )
    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tolerance_is_error(self, capsys, command, tol):
        code, doc = run_json(
            capsys, *command, "--rates", str(DATA / "triangle_bad.csv"), "--tol", tol
        )
        assert code == 1
        assert doc["data"]["error"] == "BadParamsError"

    def test_gain_beyond_float_range_is_violation(self, capsys, tmp_path):
        f = tmp_path / "r.csv"
        f.write_text("src,dst,rate\n1,2,1e308\n2,3,1e308\n3,1,1e308\n")
        code, out = run(capsys, "check", "--rates", str(f), "--format", "json")
        assert code == 2

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        doc = json.loads(out, parse_constant=reject)
        assert doc["verdict"] == "violation"
        assert doc["witness"]["cycle"] == [2, 3, 1, 2]
        assert doc["witness"]["log_gain"] == pytest.approx(3 * math.log(1e308))
        assert doc["witness"]["multiplicative_gain"] is None

    def test_disconnected_rates_allocate_nothing_dense(self, tmp_path):
        # a dense 50000 x 50000 matrix would need 18.6 GiB; the cap is 2 GiB
        f = tmp_path / "r.csv"
        f.write_text("src,dst,rate\n1,50000,2\n")
        script = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))\n"
            "from arbx.cli import main\n"
            "raise SystemExit(main(sys.argv[1:]))\n"
        )
        src = str(Path(arbx.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script, "check", "--rates", str(f), "--format", "json"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stdout)["data"]["error"] == "NotConnectedError"
        assert proc.returncode == 1


class TestCompleteCommand:
    def test_multiplicative_cross_rate(self, capsys, tmp_path):
        out = tmp_path / "rates.csv"
        code, _ = run(
            capsys,
            "complete",
            "--graph", str(DATA / "k3.json"),
            "--basis", str(DATA / "k3_basis_mult.json"),
            "--multiplicative",
            "--out", str(out),
        )
        assert code == 0
        rows = {tuple(line.split(",")[:2]): float(line.split(",")[2])
                for line in out.read_text().splitlines()[1:]}
        assert rows[("2", "3")] == pytest.approx(3.0, abs=1e-12)
        assert rows[("3", "2")] == pytest.approx(1 / 3, abs=1e-12)

    def test_output_passes_check(self, capsys, tmp_path):
        out = tmp_path / "rates.csv"
        run(
            capsys,
            "complete",
            "--graph", str(DATA / "k4.json"),
            "--basis", str(DATA / "k3_basis_mult.json"),  # wrong size: not a basis of K4
            "--out", str(out),
        )
        # proper basis for K4
        basis = tmp_path / "b.json"
        basis.write_text(json.dumps({"entries": [[1, 2], [1, 3], [1, 4]], "values": [0.1, -0.4, 2.0]}))
        code, _ = run(
            capsys,
            "complete",
            "--graph", str(DATA / "k4.json"),
            "--basis", str(basis),
            "--out", str(out),
        )
        assert code == 0
        code, _ = run(capsys, "check", "--rates", str(out))
        assert code == 0

    def test_non_spanning_basis_is_error(self, capsys, tmp_path):
        basis = tmp_path / "b.json"
        basis.write_text(json.dumps({"entries": [[1, 2], [3, 4]], "values": [1.0, 1.0]}))
        code, doc = run_json(
            capsys,
            "complete",
            "--graph", str(DATA / "k4.json"),
            "--basis", str(basis),
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert doc["data"]["error"] == "NotABasisError"


class TestBasisDimPrice:
    def test_basis_entries(self, capsys):
        code, doc = run_json(capsys, "basis", "--graph", str(DATA / "k3.json"))
        assert code == 0
        assert doc["data"]["entries"] == [[1, 2], [1, 3]]

    def test_dim_prints_three(self, capsys):
        code, out = run(capsys, "dim", "--graph", str(DATA / "k4.json"))
        assert code == 0
        assert "dimension: 3" in out

    def test_price_triangle(self, capsys):
        code, doc = run_json(
            capsys, "price", "--rates", str(DATA / "triangle_ok.csv"), "--ref", "1"
        )
        assert code == 0
        logs = doc["data"]["prices_log"]
        mult = doc["data"]["prices_multiplicative"]
        assert logs[0] == 0.0
        assert logs[1] == pytest.approx(math.log(2), abs=1e-12)
        assert logs[2] == pytest.approx(math.log(6), abs=1e-12)
        assert mult == pytest.approx([1.0, 2.0, 6.0], abs=1e-12)

    def test_price_labeled_reference(self, capsys):
        code, doc = run_json(
            capsys, "price", "--rates", str(DATA / "triangle_labeled.csv"), "--ref", "USD"
        )
        assert code == 0
        assert doc["data"]["prices_log"][2] == 0.0

    def test_price_unknown_reference(self, capsys):
        code, doc = run_json(
            capsys, "price", "--rates", str(DATA / "triangle_ok.csv"), "--ref", "CHF"
        )
        assert code == 1
        assert doc["data"]["error"] == "ParseError"

    def test_price_rejects_arbitrage(self, capsys):
        code, doc = run_json(
            capsys, "price", "--rates", str(DATA / "triangle_bad.csv"), "--ref", "1"
        )
        assert code == 1
        assert doc["data"]["error"] == "NotArbitrageFreeError"

    def test_price_beyond_float_range(self, capsys, tmp_path):
        # consistent rates whose third price, e^1381.55, exceeds the float range
        f = tmp_path / "r.csv"
        f.write_text("src,dst,rate\n1,2,1e300\n2,3,1e300\n")
        code, out = run(capsys, "price", "--rates", str(f), "--ref", "1", "--format", "json")

        def no_constants(name):
            raise AssertionError(f"{name} is not JSON")

        doc = json.loads(out, parse_constant=no_constants)
        assert code == 0
        prices = price_vector(log_of(load_rates(f).matrix), 1).prices
        assert doc["data"]["prices_log"] == list(prices)
        assert doc["data"]["prices_multiplicative"] == [1.0, math.exp(prices[1]), None]
        code, text = run(capsys, "price", "--rates", str(f), "--ref", "1")
        assert code == 0
        assert "prices_multiplicative: 1 1e+300 inf" in text.splitlines()


class TestPerturb:
    def write_delta(self, tmp_path, deltas):
        f = tmp_path / "delta.json"
        f.write_text(json.dumps({"basis": {"entries": [[1, 2], [1, 3]]}, "deltas": deltas}))
        return f

    def test_first_order_rates(self, capsys, tmp_path):
        delta = self.write_delta(tmp_path, [0.01, 0.0])
        code, doc = run_json(
            capsys,
            "perturb", "--rates", str(DATA / "triangle_ok.csv"), "--delta", str(delta),
        )
        assert code == 0
        assert doc["data"]["mode"] == "first-order"
        rates = {(r[0], r[1]): r[2] for r in doc["data"]["rates"]}
        assert rates[("1", "2")] == pytest.approx(2 * 1.01, abs=1e-12)

    def test_exact_output_consistent(self, capsys, tmp_path):
        delta = self.write_delta(tmp_path, [0.25, -0.1])
        code, doc = run_json(
            capsys,
            "perturb", "--rates", str(DATA / "triangle_ok.csv"), "--delta", str(delta),
            "--exact",
        )
        assert code == 0
        assert doc["data"]["mode"] == "exact"
        rates = {(r[0], r[1]): r[2] for r in doc["data"]["rates"]}
        assert rates[("1", "2")] == pytest.approx(2 * math.exp(0.25), rel=1e-12)
        # round-trip via a file and re-check
        out = tmp_path / "after.csv"
        out.write_text(
            "src,dst,rate\n"
            + "\n".join(f"{a},{b},{v!r}" for (a, b), v in sorted(rates.items()))
            + "\n"
        )
        code, _ = run(capsys, "check", "--rates", str(out))
        assert code == 0

    def test_bad_basis_in_delta(self, capsys, tmp_path):
        f = tmp_path / "delta.json"
        f.write_text(json.dumps({"basis": {"entries": [[1, 2]]}, "deltas": [0.1]}))
        code, doc = run_json(
            capsys,
            "perturb", "--rates", str(DATA / "triangle_ok.csv"), "--delta", str(f),
        )
        assert code == 1
        assert doc["data"]["error"] == "NotABasisError"

    def test_first_order_overflow_is_error(self, capsys, tmp_path):
        # rate * delta = 2e308 has no float; JSON has no infinity to print
        delta = self.write_delta(tmp_path, [1e308, 0.0])
        code, out = run(
            capsys,
            "perturb", "--rates", str(DATA / "triangle_ok.csv"), "--delta", str(delta),
            "--format", "json",
        )
        assert code == 1

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        assert json.loads(out, parse_constant=reject)["data"]["error"] == "OverflowError"

    def test_first_order_non_positive_rate_is_error(self, capsys, tmp_path):
        # 2 -> 1 is 0.5 + 0.5 * -800: the first quote in row order below zero
        delta = self.write_delta(tmp_path, [800.0, -0.1])
        args = ("perturb", "--rates", str(DATA / "triangle_ok.csv"), "--delta", str(delta))
        code, doc = run_json(capsys, *args)
        assert code == 1 and doc["verdict"] == "error"
        assert doc["data"] == {
            "error": "BadParamsError",
            "message": "first-order rate 2->1 is -399.5, not positive; use --exact",
        }
        # a log delta of -1.5 leaves no first-order rate, but an exact one
        delta = self.write_delta(tmp_path, [0.0, -1.5])
        assert run_json(capsys, *args)[1]["data"]["error"] == "BadParamsError"
        code, doc = run_json(capsys, *args, "--exact")
        assert code == 0 and all(rate > 0.0 for _, _, rate in doc["data"]["rates"])


class TestGen:
    @pytest.mark.parametrize("kind,extra", [
        ("complete", []),
        ("tree", []),
        ("gnp", ["--p", "0.5"]),
        ("pa", ["--m", "2"]),
    ])
    def test_kinds_produce_loadable_graphs(self, capsys, tmp_path, kind, extra):
        out = tmp_path / "g.json"
        code, _ = run(
            capsys, "gen", "--kind", kind, "--n", "6", "--seed", "5", "--out", str(out), *extra
        )
        assert code == 0
        g = load_graph(out)
        assert g.n == 6

    def test_deterministic_output_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "gen", "--kind", "pa", "--n", "9", "--m", "2", "--seed", "13", "--out", str(a))
        run(capsys, "gen", "--kind", "pa", "--n", "9", "--m", "2", "--seed", "13", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_missing_param_is_error(self, capsys, tmp_path):
        code, doc = run_json(
            capsys, "gen", "--kind", "gnp", "--n", "6", "--seed", "5",
            "--out", str(tmp_path / "g.json"),
        )
        assert code == 1
        assert doc["data"]["error"] == "BadParamsError"


class TestOracleCommand:
    def test_mirrors_check_exit_codes(self, capsys, tmp_path):
        # a triangle quoted one way round, and a complete market at the
        # oracle's cap of 8 goods, consistent and with one chord mispriced
        tri_ok, k8 = tmp_path / "tri_ok.csv", tmp_path / "k8.csv"
        tri_ok.write_text("src,dst,rate\n1,2,2\n2,3,3\n3,1,0.16666666666666666\n")
        cli_chain(tmp_path, "k8", "--kind", "complete", "--n", "8")
        mispriced(k8, tmp_path / "k8_basis.json", tmp_path / "k8_bad.csv")
        for rates, expected in [(DATA / "triangle_ok.csv", 0), (DATA / "triangle_bad.csv", 2),
                                (tri_ok, 0), (k8, 0), (tmp_path / "k8_bad.csv", 2)]:
            code_check, _ = run(capsys, "check", "--rates", str(rates))
            code_oracle, _ = run(capsys, "oracle", "--rates", str(rates))
            assert code_check == code_oracle == expected

    def test_max_n_cap(self, capsys, tmp_path):
        out = tmp_path / "g.json"
        run(capsys, "gen", "--kind", "tree", "--n", "9", "--seed", "1", "--out", str(out))
        basis = tmp_path / "b.json"
        basis.write_text(json.dumps({
            "entries": [[i, j] for i, j in load_graph(out).simple_edges],
            "values": [0.1] * 8,
        }))
        rates = tmp_path / "r.csv"
        run(capsys, "complete", "--graph", str(out), "--basis", str(basis), "--out", str(rates))
        code, doc = run_json(capsys, "oracle", "--rates", str(rates))
        assert code == 1
        assert doc["data"]["error"] == "OracleSizeError"
        code, _ = run(capsys, "oracle", "--rates", str(rates), "--max-n", "9")
        assert code == 0


class TestReports:
    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bogus-command"])
        assert exc.value.code == 1
        with pytest.raises(SystemExit) as exc:
            main(["check"])  # missing --rates
        assert exc.value.code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["basis", "--graph", "g.json"],
            ["dim", "--graph", "g.json"],
            ["complete", "--graph", "g.json", "--basis", "b.json", "--out", "r.csv"],
            ["gen", "--kind", "tree", "--n", "3", "--seed", "1", "--out", "g.json"],
        ],
    )
    def test_tolerance_is_a_usage_error_without_rates(self, capsys, tmp_path, monkeypatch, argv):
        # --tol judges a rates sheet's reciprocal conflicts; these read none
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--tol", "1e-9"])
        assert exc.value.code == 1
        out, err = capsys.readouterr()
        assert out == "" and "arbx: error: unrecognized arguments: --tol 1e-9" in err
        assert not any(tmp_path.iterdir())

    def test_schema_stable_across_commands(self, capsys, tmp_path):
        gfile = tmp_path / "g.json"
        run(capsys, "gen", "--kind", "complete", "--n", "3", "--seed", "0", "--out", str(gfile))
        basis = tmp_path / "b.json"
        basis.write_text(json.dumps({"entries": [[1, 2], [1, 3]], "values": [0.5, 0.25]}))
        rates = tmp_path / "r.csv"
        run(capsys, "complete", "--graph", str(gfile), "--basis", str(basis), "--out", str(rates))
        delta = tmp_path / "d.json"
        delta.write_text(json.dumps({"basis": {"entries": [[1, 2], [1, 3]]}, "deltas": [0.0, 0.1]}))
        invocations = [
            ["check", "--rates", str(rates)],
            ["oracle", "--rates", str(rates)],
            ["complete", "--graph", str(gfile), "--basis", str(basis), "--out", str(rates)],
            ["basis", "--graph", str(gfile)],
            ["dim", "--graph", str(gfile)],
            ["price", "--rates", str(rates), "--ref", "1"],
            ["perturb", "--rates", str(rates), "--delta", str(delta)],
            ["gen", "--kind", "tree", "--n", "4", "--seed", "2", "--out", str(tmp_path / "t.json")],
        ]
        for argv in invocations:
            _, doc = run_json(capsys, *argv)
            assert set(doc) == REPORT_KEYS, argv

    def test_each_input_is_read_once_and_its_bytes_digested(self, capsys, tmp_path, monkeypatch):
        basis = tmp_path / "b.json"
        basis.write_text(json.dumps({"entries": [[1, 2], [1, 3]], "values": [0.5, 0.25]}))
        delta = tmp_path / "d.json"
        delta.write_text(json.dumps({"basis": {"entries": [[1, 2], [1, 3]]}, "deltas": [0.0, 0.1]}))
        rates, graph = DATA / "triangle_ok.csv", DATA / "k3.json"
        invocations = [
            (["check", "--rates", str(rates)], {"rates": rates}),
            (["oracle", "--rates", str(rates)], {"rates": rates}),
            (["price", "--rates", str(rates), "--ref", "1"], {"rates": rates}),
            (["perturb", "--rates", str(rates), "--delta", str(delta)], {"rates": rates, "delta": delta}),
            (["basis", "--graph", str(graph)], {"graph": graph}),
            (["dim", "--graph", str(graph)], {"graph": graph}),
            (["complete", "--graph", str(graph), "--basis", str(basis), "--out", str(tmp_path / "r.csv")],
             {"graph": graph, "basis": basis}),
        ]
        read_bytes = Path.read_bytes
        for argv, inputs in invocations:
            reads = []
            monkeypatch.setattr(Path, "read_bytes", lambda p: reads.append(str(p)) or read_bytes(p))
            _, doc = run_json(capsys, *argv)
            monkeypatch.undo()
            assert sorted(reads) == sorted(map(str, inputs.values())), argv
            assert doc["inputs"] == {
                key: "sha256:" + hashlib.sha256(path.read_bytes()).hexdigest() for key, path in inputs.items()
            }

    def _assert_golden(self, capsys, sheet):
        # the report, the run metrics dropped, byte for byte as its golden file
        _, doc = run_json(capsys, "check", "--rates", str(DATA / f"{sheet}.csv"))
        golden = (GOLDEN / f"check_{sheet}.json").read_text()
        assert json.dumps(steady(doc), indent=2, sort_keys=True) + "\n" == golden

    def test_golden_check_report(self, capsys):
        # an index market lists no labels
        self._assert_golden(capsys, "triangle_ok")

    def test_golden_labeled_check_report(self, capsys):
        self._assert_golden(capsys, "triangle_labeled")

    @pytest.mark.parametrize("sheet", [
        'src,dst,rate\n"a\nb",c,2\nc,"a\nb",0.5\n',
        "src,dst,rate\nEU R,USD,2\n",
        'src,dst,rate\n"x,y",z,2\nz,w,3\n',
    ])
    def test_text_labels_read_back(self, capsys, tmp_path, sheet):
        # the labels line is one CSV row parted by spaces; a cell is label=k at its last "="
        rates = tmp_path / "r.csv"
        rates.write_text(sheet, newline="")
        _, text = run(capsys, "check", "--rates", str(rates))
        _, doc = run_json(capsys, "check", "--rates", str(rates))
        line = text[text.index("\nlabels: ") + len("\nlabels: ") :]
        cells = next(csv.reader(io.StringIO(line, newline=""), delimiter=" "))
        assert [cell.rpartition("=")[::2] for cell in cells] == [(lab, str(k)) for k, lab in enumerate(doc["labels"], 1)]

    def test_text_rows_and_witness_read_back(self, capsys, tmp_path):
        rates, delta = tmp_path / "r.csv", tmp_path / "d.json"
        rates.write_text('src,dst,rate\n"x,y",z,2\nz,w,3\n')
        delta.write_text(json.dumps({"basis": {"entries": [[2, 3], [3, 1]]}, "deltas": [0.0, 0.0]}))
        _, text = run(capsys, "perturb", "--rates", str(rates), "--delta", str(delta))
        _, doc = run_json(capsys, "perturb", "--rates", str(rates), "--delta", str(delta))
        block = text[text.index("\nrates:\n") : text.index("\nlabels: ")].splitlines()[2:]
        rows = list(csv.reader(line.strip() for line in block))
        assert [row[:2] for row in rows] == [row[:2] for row in doc["data"]["rates"]]
        rates.write_text("src,dst,rate\nEU R,USD,2\nUSD,JPY,3\nJPY,EU R,0.2\n")
        code, text = run(capsys, "check", "--rates", str(rates))
        assert code == 2 and '\nwitness: JPY -> USD -> "EU R" -> JPY\n' in text

    def test_violation_requires_witness(self):
        with pytest.raises(ValueError):
            RunReport(
                command="check", verdict="violation", witness=None,
                metrics={}, inputs={}, labels=(), data={},
            )

    def test_metrics_must_be_non_negative(self):
        with pytest.raises(ValueError):
            RunReport(
                command="check", verdict="ok", witness=None,
                metrics={"elapsed_ms": -1.0}, inputs={}, labels=(), data={},
            )

    def test_only_infinite_data_is_written_as_null(self):
        report = RunReport(
            command="price", verdict="ok", witness=None, metrics={}, inputs={}, labels=(),
            data={"x": [1.5, math.inf, [-math.inf, math.nan]], "y": math.nan},
        )
        data = report.to_dict()["data"]
        assert data["x"][:2] == [1.5, None] and data["x"][2][0] is None
        assert math.isnan(data["x"][2][1]) and math.isnan(data["y"])


class TestRatesFileRoundTrip:
    def test_save_then_load_is_identity(self, tmp_path):
        rates = load_rates(DATA / "triangle_ok.csv")
        out = tmp_path / "echo.csv"
        save_rates(out, rates.matrix, labels=rates.labels)
        again = load_rates(out)
        assert again.labels == rates.labels
        assert (again.matrix.entries == rates.matrix.entries).all()
        assert again.filled == ()

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        with pytest.raises(BadParamsError):
            load_rates(DATA / "triangle_ok.csv", tol=tol)

    def test_header_required(self, tmp_path):
        f = tmp_path / "r.csv"
        f.write_text("1,2,2\n")
        with pytest.raises(Exception):
            load_rates(f)

    def test_zero_based_indices_rejected(self, tmp_path):
        f = tmp_path / "r.csv"
        f.write_text("src,dst,rate\n0,1,2\n")
        with pytest.raises(Exception):
            load_rates(f)


class TestByteOrderMark:
    """Spreadsheet exports may start with a UTF-8 byte-order mark; it is
    not part of the first field, and the digest still covers it."""

    BOM = b"\xef\xbb\xbf"

    def _with_bom(self, tmp_path, name):
        f = tmp_path / name
        f.write_bytes(self.BOM + (DATA / name).read_bytes())
        return f

    def test_rates_csv(self, capsys, tmp_path):
        f = self._with_bom(tmp_path, "triangle_labeled.csv")
        code, doc = run_json(capsys, "check", "--rates", str(f))
        _, plain = run_json(capsys, "check", "--rates", str(DATA / "triangle_labeled.csv"))
        assert code == 0
        assert doc["labels"] == plain["labels"] == ["EUR", "GBP", "USD"]
        assert doc["data"] == plain["data"]
        assert doc["inputs"]["rates"] == "sha256:" + hashlib.sha256(f.read_bytes()).hexdigest()

    def test_json(self, capsys, tmp_path):
        graph = self._with_bom(tmp_path, "k3.json")
        basis = self._with_bom(tmp_path, "k3_basis_mult.json")
        out, plain = tmp_path / "bom.csv", tmp_path / "plain.csv"
        code, doc = run_json(
            capsys, "complete", "--graph", str(graph), "--basis", str(basis),
            "--multiplicative", "--out", str(out),
        )
        run_json(
            capsys, "complete", "--graph", str(DATA / "k3.json"),
            "--basis", str(DATA / "k3_basis_mult.json"), "--multiplicative", "--out", str(plain),
        )
        assert code == 0
        assert out.read_bytes() == plain.read_bytes()
        assert doc["inputs"]["graph"] == "sha256:" + hashlib.sha256(graph.read_bytes()).hexdigest()


def _run_capped(*argv, cap=2 << 30):
    """Run the CLI in a child whose address space is capped at ``cap`` bytes
    (2 GiB by default)."""
    script = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap}))\n"
        "from arbx.cli import main\n"
        "raise SystemExit(main(sys.argv[1:]))\n"
    )
    src = str(Path(arbx.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script, *argv, "--format", "json"],
        capture_output=True, text=True, env=env, timeout=60,
    )


class TestTokenSizedAllocation:
    """One large integer in an input must not size an allocation."""

    def test_huge_rates_index_allocates_no_labels(self, tmp_path):
        # a label per index up to 1e9 would need far more than the 2 GiB cap
        f = tmp_path / "r.csv"
        f.write_text("src,dst,rate\n1,1000000000,2\n")
        proc = _run_capped("check", "--rates", str(f))
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stdout)["data"]["error"] == "NotConnectedError"
        assert proc.returncode == 1

    @pytest.mark.parametrize("command", ["dim", "basis"])
    def test_huge_graph_n_allocates_no_adjacency(self, tmp_path, command):
        f = tmp_path / "g.json"
        f.write_text('{"n": 1000000000, "edges": [[1, 2]]}')
        proc = _run_capped(command, "--graph", str(f))
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stdout)["data"]["error"] == "NotConnectedError"
        assert proc.returncode == 1

    def test_huge_tree_gen_reports_memory_error(self, tmp_path):
        # an edge list for 1e9 goods is refused before it is built; the run
        # ends in an error report (MemoryError reports: the test below)
        out = tmp_path / "g.json"
        proc = _run_capped(
            "gen", "--kind", "tree", "--n", "1000000000", "--seed", "1", "--out", str(out),
            cap=512 << 20,
        )
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stdout)["data"]["error"] == "BadParamsError"
        assert proc.returncode == 1

    @pytest.mark.parametrize("kind,extra", [("complete", []), ("gnp", ["--p", "0.5"])])
    def test_gen_pair_list_is_bounded(self, tmp_path, kind, extra):
        # 100000 goods have about 5e9 pairs, far beyond the cap
        out = tmp_path / "g.json"
        proc = _run_capped(
            "gen", "--kind", kind, "--n", "100000", *extra, "--seed", "1", "--out", str(out),
            cap=512 << 20,
        )
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stdout)["data"]["error"] == "BadParamsError"
        assert proc.returncode == 1
        assert not out.exists()

    def test_memory_error_is_reported(self, capsys, monkeypatch, tmp_path):
        def exhausted(args):
            raise MemoryError

        monkeypatch.setattr("arbx.cli.cmd_gen", exhausted)
        code, doc = run_json(
            capsys, "gen", "--kind", "tree", "--n", "4", "--seed", "1", "--out", str(tmp_path / "g.json")
        )
        assert code == 1
        assert doc["verdict"] == "error"
        assert doc["data"] == {"error": "MemoryError", "message": "MemoryError"}


class TestSparseMarketMemory:
    """A sparse market runs in memory linear in its size: on pa n=20000 a
    dense n x n matrix alone would take 3.2 GB, over three times the cap."""

    CAP = 1 << 30

    @pytest.fixture(scope="class")
    def market(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("pa20000")
        g = generate_graph("pa", 20000, m=3, seed=3)
        rng = random.Random(3)
        p = [0.0] + [rng.uniform(-2.0, 2.0) for _ in range(g.n)]  # log rate (i, j) = p[j] - p[i]
        save_graph(d / "graph.json", g)
        entries = canonical_basis(g).entries
        (d / "basis.json").write_text(json.dumps(
            {"entries": [list(e) for e in entries], "values": [p[j] - p[i] for i, j in entries]}
        ))
        directed = [d for i, j in g.simple_edges for d in ((i, j), (j, i))]
        rows = [f"{a},{b},{math.exp(p[b] - p[a])!r}" for a, b in directed]
        (d / "rates.csv").write_text("src,dst,rate\n" + "\n".join(rows) + "\n")
        return d

    @pytest.mark.parametrize("argv", [
        ("complete", "--graph", "{d}/graph.json", "--basis", "{d}/basis.json",
         "--out", "{d}/out.csv"),
        ("check", "--rates", "{d}/rates.csv"),
        ("price", "--rates", "{d}/rates.csv", "--ref", "1"),
    ], ids=["complete", "check", "price"])
    def test_runs_under_one_gib(self, market, argv):
        proc = _run_capped(*(a.format(d=market) for a in argv), cap=self.CAP)
        assert "Traceback" not in proc.stderr
        assert json.loads(proc.stdout)["verdict"] == "ok"
        assert proc.returncode == 0
