"""Self-test of the benchmark at toy size (n = 12).

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def toy(workload: str, trace: bool = False, mutate_reference=None) -> dict:
    return run.run_workload(workload, 7, 0.1, trace, scale="toy", mutate_reference=mutate_reference)


class BenchSelfTest(unittest.TestCase):
    def test_every_workload_passes_and_emits_every_metric(self):
        for trace, listed in ((False, SPEC["end_to_end"]), (True, SPEC["per_layer"])):
            expected = {m["name"]: m["unit"] for m in listed}
            for w in SPEC["workloads"]:
                with self.subTest(workload=w["name"], trace=trace):
                    result = toy(w["name"], trace)
                    self.assertEqual(result["failed"], 0, result["notes"])
                    self.assertTrue(result["correct"], result["notes"])
                    self.assertGreater(result["attempted"], 0)
                    units = {k: m["unit"] for k, m in result["metrics"].items()}
                    self.assertEqual(units, expected)

    def test_workloads_match_the_runner(self):
        self.assertEqual(tuple(w["name"] for w in SPEC["workloads"]), run.WORKLOADS)

    def test_corrupted_reference_counts_as_failure(self):
        def shift(values):
            def mutate(ref):
                table = getattr(ref, values)
                key = next(iter(table)) if isinstance(table, dict) else 1
                table[key] += 1e-6

            return mutate

        for workload, values in (
            ("dense_check", "prices"),
            ("sparse_pipeline", "rates"),
            ("perturb_exact", "exact"),
        ):
            with self.subTest(workload=workload):
                result = toy(workload, mutate_reference=shift(values))
                self.assertGreater(result["failed"], 0)
                self.assertFalse(result["correct"])

    def test_refuses_a_directory_without_arbx(self):
        bare = run.WORK / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(run.ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "dense_check", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=120,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
