"""Smoke test: every workload at a tiny size prints every declared metric.

Run from the repository root::

    python3 -m unittest bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


class SmokeTest(unittest.TestCase):
    def test_every_workload_prints_every_metric_with_its_unit(self):
        for workload in SPEC["workloads"]:
            for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=workload["name"], trace=trace):
                    proc = _run(ROOT, "--workload", workload["name"], "--seed", "3",
                                "--seconds", "1", "--trace", str(trace), "--tiny")
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertEqual(result["failed"], 0)
                    metrics = result["metrics"]
                    self.assertEqual(set(metrics), {m["name"] for m in declared})
                    for m in declared:
                        self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
                        self.assertIsInstance(metrics[m["name"]]["value"], (int, float))

    def test_refuses_to_run_without_the_sources(self):
        bare = BENCH / "out" / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        try:
            shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            proc = _run(bare, "--workload", "desk-mix", "--seed", "1", "--seconds", "1",
                        "--trace", "0")
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
