"""The CLI writes its report to stdout and nothing to stderr, errors included."""

import json
import os
import subprocess
import sys
from pathlib import Path

import arbx

DATA = Path(__file__).parent / "data"


def test_first_order_overflow_prints_no_warning(tmp_path):
    # rate * delta overflows inside numpy; the report names it, numpy must not
    delta = tmp_path / "delta.json"
    delta.write_text(json.dumps({"basis": {"entries": [[1, 2], [1, 3]]}, "deltas": [1e308, 0.0]}))
    src = str(Path(arbx.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [
            sys.executable, "-c", "import sys; from arbx.cli import main; sys.exit(main())",
            "perturb", "--rates", str(DATA / "triangle_ok.csv"), "--delta", str(delta),
            "--format", "json",
        ],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["data"]["error"] == "OverflowError"
    assert proc.returncode == 1
