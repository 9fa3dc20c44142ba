"""Start-up: the lazy package namespace, the CLI's BLAS thread default, and the
guard that keeps that default sound (arbx makes no BLAS call)."""

import ast
import functools
import gc
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import arbx
from helpers import steady

DATA = Path(__file__).parent / "data"
SRC = Path(arbx.__file__).resolve().parents[1]

# the public names of arbx before its namespace became lazy
PUBLIC = set("""
    ArbitrageWitness ArbxError BadParamsError BasisAssignment BasisSpec CheckResult DEFAULT_TOL
    DuplicateEdgeError EpsilonBasis FundamentalCycle GraphIndexError GraphMismatchError
    LengthMismatchError LogRateMatrix MarketGraph NotABasisError NotAnEdgeError
    NotArbitrageFreeError NotAWalkError NotClosedError NotCompleteError NotConnectedError
    ORACLE_MAX_VERTICES OracleSizeError PairViolation ParseError PerturbationOperator
    PerturbationVector PriceVector RateMatrix ReciprocalConflictError SpanningTree
    SpecMismatchError TreeMismatchError apply_exact build_operator canonical_basis
    check_antisymmetry check_no_arbitrage check_no_arbitrage_oracle complete cycle_gain
    cycle_log_gain decompose dimension dimension_by_rank enumerate_simple_cycles
    epsilon_matrices exp_of fundamental_cycles generate_graph is_basis is_connected log_of
    matrix_from_prices new_graph price_vector propagate_log propagate_multiplicative_first_order
    row_basis spanning_tree
""".split())

# the BLAS-backed numpy calls; the CLI's one-thread default holds only without them
BLAS_NAMES = {"dot", "inner", "vdot", "matmul", "tensordot", "einsum", "linalg"}


def child(code, *args, blas=None):
    """Run ``python code args`` with arbx from this checkout and
    OPENBLAS_NUM_THREADS unset, or set to ``blas``."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if blas is not None:
        env["OPENBLAS_NUM_THREADS"] = blas
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *code, *args], capture_output=True, text=True, env=env, timeout=60
    )


class TestNamespace:
    def test_import_loads_no_numpy_and_leaves_blas_alone(self):
        proc = child(["-c",
            "import json, os, sys, arbx; "
            "print(json.dumps(['numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS')]))"
        ])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [False, None]

    def test_all_is_unchanged(self):
        assert len(arbx.__all__) == len(PUBLIC) == 61
        assert set(arbx.__all__) == PUBLIC

    def test_each_name_is_the_submodule_object(self):
        for name in PUBLIC:
            owner = importlib.import_module(f"arbx.{arbx._OWNER[name]}")
            assert getattr(arbx, name) is getattr(owner, name), name

    def test_star_submodule_and_attribute_access_in_a_fresh_interpreter(self):
        proc = child(["-c",
            "import sys\n"
            "from arbx import *\n"
            "from arbx import dynamics\n"
            "import arbx\n"
            "assert sys.modules['arbx.dynamics'] is dynamics\n"
            "assert arbx.graph is sys.modules['arbx.graph']\n"
            "assert MarketGraph is arbx.graph.MarketGraph and arbx.io.__name__ == 'arbx.io'\n"
            "assert set(arbx.__all__) <= set(dir(arbx)) and 'graph' in dir(arbx)\n"
        ])
        assert proc.returncode == 0, proc.stderr

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            arbx.no_such_name
        with pytest.raises(ImportError):
            from arbx import no_such_name  # noqa: F401


class TestCliBlasDefault:
    # records the variable as numpy starts to load; a finder that returns None
    # leaves the import to the normal finders
    PROBE = (
        "import json, os, sys\n"
        "seen = []\n"
        "class Probe:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name == 'numpy' and not seen:\n"
        "            seen.append(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        "sys.meta_path.insert(0, Probe())\n"
        "import arbx.cli\n"
        "print(json.dumps([seen, os.environ.get('OPENBLAS_NUM_THREADS')]))\n"
    )

    @pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
    def test_set_before_numpy_loads_and_user_value_kept(self, preset, expected):
        proc = child(["-c", self.PROBE], blas=preset)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[expected], expected]

    @pytest.mark.parametrize("argv", [
        ("check", "--rates", str(DATA / "triangle_ok.csv")),
        ("check", "--rates", str(DATA / "triangle_bad.csv")),
        ("price", "--rates", str(DATA / "triangle_labeled.csv"), "--ref", "USD"),
        ("perturb", "--rates", str(DATA / "triangle_ok.csv"), "--delta", "DELTA"),
        ("perturb", "--rates", str(DATA / "triangle_ok.csv"), "--delta", "DELTA", "--exact"),
    ])
    def test_report_does_not_depend_on_blas_threads(self, argv, tmp_path):
        delta = tmp_path / "delta.json"
        delta.write_text(json.dumps({"basis": {"entries": [[1, 2], [1, 3]]}, "deltas": [0.25, -0.1]}))
        argv = [str(delta) if a == "DELTA" else a for a in argv]
        reports = []
        for blas in (None, "4"):
            proc = child(["-m", "arbx.cli"], *argv, "--format", "json", blas=blas)
            assert proc.returncode in (0, 2), proc.stderr
            doc = json.loads(proc.stdout)
            steady(doc)
            reports.append((proc.returncode, doc))
        assert reports[0] == reports[1]


def test_no_blas_backed_call_in_arbx():
    found = []
    for path in sorted((SRC / "arbx").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append((path.name, node.lineno, "@"))
            elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
                found.append((path.name, node.lineno, node.attr))
            elif isinstance(node, ast.Name) and node.id in BLAS_NAMES:
                found.append((path.name, node.lineno, node.id))
            elif isinstance(node, ast.alias) and set(node.name.split(".")) & BLAS_NAMES:
                found.append((path.name, node.lineno, node.name))
            elif isinstance(node, ast.ImportFrom) and set((node.module or "").split(".")) & BLAS_NAMES:
                found.append((path.name, node.lineno, node.module))
    assert found == []


class TestProgramEntry:
    """``run()`` is the program entry: it freezes the import heap, then exits
    with ``main()``'s code; ``main`` itself changes no process-wide state."""

    ARGVS = [
        ("check", "--rates", str(DATA / "triangle_ok.csv")),
        ("check", "--rates", str(DATA / "triangle_bad.csv")),
        ("check", "--rates", str(DATA / "no_such_file.csv")),
    ]

    def test_main_in_process_freezes_nothing(self, capsys):
        from arbx.cli import main

        before = gc.get_freeze_count()
        for argv in self.ARGVS:
            main([*argv, "--format", "json"])
        capsys.readouterr()
        assert gc.get_freeze_count() == before

    @pytest.mark.parametrize("argv, code", zip(ARGVS, (0, 2, 1)))
    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_module_and_run_agree(self, argv, code, fmt):
        runs = [
            child(["-m", "arbx.cli"], *argv, "--format", fmt),
            child(["-c", "from arbx.cli import run; run()"], *argv, "--format", fmt),
        ]
        outs = []
        for proc in runs:
            assert proc.returncode == code and proc.stderr == ""
            outs.append(steady(proc.stdout))
        assert outs[0] == outs[1]

    def test_run_freezes_and_keeps_exit_handlers(self):
        # run() ends in SystemExit, not os._exit: atexit handlers still run
        proc = child(["-c",
            "import atexit, gc\n"
            "from arbx.cli import run\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
            "run()\n"
        ], "check", "--rates", str(DATA / "triangle_ok.csv"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("arbx check\nverdict: ok\n")
        assert proc.stdout.endswith("frozen True\n")

    def test_console_script_is_run(self):
        pyproject = (SRC.parent / "pyproject.toml").read_text()
        assert re.search(r'^arbx = "arbx\.cli:run"$', pyproject, re.MULTILINE)


def watched(modules, code, *argv):
    """Those of ``modules`` in sys.modules of a child that ran ``code`` on argv."""
    proc = child(["-c", f"import json, sys\n{code}print(json.dumps([m for m in {modules!r} if m in sys.modules]))\n"], *argv)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


@functools.cache
def numpy_loads(modules):
    """Those of ``modules`` that ``import numpy`` alone loads: numpy 1.x
    imports numpy.ma itself, and hashlib through numpy.random and secrets."""
    return watched(modules, "import numpy\n")


class TestLayersLoaded:
    """A command loads only the layers it calls: importing the CLI loads no
    dataclasses, no csv and neither basis nor dynamics, ``check`` loads
    neither layer, and ``price`` loads basis but not dynamics. Only
    ``complete`` loads the rates writer, and with index labels no csv; no
    command loads ``numpy.ma``, and ``gen``, which digests nothing, no
    ``hashlib``; an input below ``io._OWN_SHA256_BELOW`` bytes loads no
    OpenSSL ``_hashlib``. A module that ``import numpy`` loads by itself is
    not the command's, and is not counted."""

    MODULES = ("dataclasses", "csv", "arbx.basis", "arbx.dynamics", "arbx._repr", "numpy.ma", "hashlib", "_hashlib")

    def loaded(self, *argv):
        # the watched modules in sys.modules of a child that imported the CLI
        # and ran argv, less those that import numpy alone loads
        return watched(self.MODULES, "from arbx.cli import main\nif sys.argv[1:]:\n    main(sys.argv[1:])\n", *argv) - numpy_loads(self.MODULES)

    def test_import(self):
        assert self.loaded() == set()

    def test_check(self):
        loaded = self.loaded("check", "--rates", str(DATA / "triangle_ok.csv"))
        assert not loaded & {"arbx.basis", "arbx.dynamics", "arbx._repr", "numpy.ma"}

    def test_price(self):
        loaded = self.loaded("price", "--rates", str(DATA / "triangle_labeled.csv"), "--ref", "USD")
        assert "arbx.basis" in loaded and not loaded & {"arbx.dynamics", "arbx._repr", "numpy.ma"}

    @pytest.mark.parametrize("command", ["basis", "dim"])
    def test_graph_commands(self, command):
        assert not self.loaded(command, "--graph", str(DATA / "k3.json")) & {"arbx._repr", "numpy.ma"}

    @pytest.mark.parametrize("exact", [[], ["--exact"]])
    def test_perturb(self, exact, tmp_path):
        delta = tmp_path / "delta.json"
        delta.write_text(json.dumps({"basis": {"entries": [[1, 2], [1, 3]]}, "deltas": [0.25, -0.1]}))
        loaded = self.loaded("perturb", "--rates", str(DATA / "triangle_ok.csv"), "--delta", str(delta), *exact)
        assert not loaded & {"arbx._repr", "numpy.ma"}

    def test_complete_with_index_labels(self, tmp_path):
        basis = tmp_path / "basis.json"
        basis.write_text(json.dumps({"entries": [[1, 2], [1, 3]], "values": [0.5, -40.0]}))
        loaded = self.loaded("complete", "--graph", str(DATA / "k3.json"), "--basis", str(basis), "--out", str(tmp_path / "r.csv"))
        assert "arbx._repr" in loaded and not loaded & {"csv", "numpy.ma"}

    def test_gen(self, tmp_path):
        loaded = self.loaded("gen", "--kind", "pa", "--n", "30", "--m", "2", "--seed", "1", "--out", str(tmp_path / "g.json"))
        assert not loaded & {"hashlib", "arbx._repr", "numpy.ma"}

    @pytest.mark.parametrize("argv", [
        ("check", "--rates", str(DATA / "triangle_ok.csv")),
        ("price", "--rates", str(DATA / "triangle_labeled.csv"), "--ref", "USD"),
        ("basis", "--graph", str(DATA / "k3.json")),
        ("dim", "--graph", str(DATA / "k3.json")),
        ("complete", "--graph", str(DATA / "k3.json"), "--basis", "BASIS", "--out", "OUT"),
        ("perturb", "--rates", str(DATA / "triangle_ok.csv"), "--delta", "DELTA"),
        ("perturb", "--rates", str(DATA / "triangle_ok.csv"), "--delta", "DELTA", "--exact"),
    ])
    def test_inputs_below_the_threshold_load_no_openssl(self, argv, tmp_path):
        files = {"BASIS": tmp_path / "basis.json", "DELTA": tmp_path / "delta.json", "OUT": tmp_path / "r.csv"}
        files["BASIS"].write_text(json.dumps({"entries": [[1, 2], [1, 3]], "values": [0.5, -40.0]}))
        files["DELTA"].write_text(json.dumps({"basis": {"entries": [[1, 2], [1, 3]]}, "deltas": [0.25, -0.1]}))
        loaded = self.loaded(*(str(files.get(a, a)) for a in argv))
        assert not loaded & {"hashlib", "_hashlib"}

    def test_a_sheet_of_the_threshold_loads_openssl(self, tmp_path):
        from arbx.io import _OWN_SHA256_BELOW

        sheet = tmp_path / "path.csv"
        # a path of goods, each pair quoted one way: rows of 8 to 16 bytes, 1.2 MiB in all
        sheet.write_text("src,dst,rate\n" + "".join(f"{i},{i + 1},1.5\n" for i in range(1, _OWN_SHA256_BELOW // 12)))
        assert sheet.stat().st_size >= _OWN_SHA256_BELOW
        code = "from arbx.cli import main\nmain(sys.argv[1:])\n"
        assert "_hashlib" in watched(self.MODULES, code, "check", "--rates", str(sheet), "--format", "json")
