"""Self-test of the benchmark harness, at tiny sizes (``--smoke``).

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its unit on
every workload, that a deliberately corrupted output is counted as a failed
op, and that a directory without the gmop sources is refused.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import run  # noqa: E402

#: Every workload the harness has, also those BENCHMARK.json does not gate.
WORKLOADS = run.WORKLOADS


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


class MetricsPrinted(unittest.TestCase):
    def test_gated_workloads_exist(self) -> None:
        self.assertLessEqual({w["name"] for w in SPEC["workloads"]}, set(WORKLOADS))

    def check_run(self, workload: str, trace: int, spec_key: str) -> None:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
             "--seconds", "1", "--trace", str(trace), "--smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=180,
        )
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = last_json(proc.stdout)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in SPEC[spec_key]}
        self.assertEqual(set(result["metrics"]), set(expected))
        table = [line.split() for line in proc.stdout.strip().splitlines()[:-1]]
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], expected[name], name)
            self.assertTrue(math.isfinite(metric["value"]), name)
            self.assertIn([name, expected[name]], [row[:3:2] for row in table], name)

    def test_end_to_end_metrics(self) -> None:
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 0, "end_to_end")

    def test_per_layer_metrics(self) -> None:
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_run(workload, 1, "per_layer")


class CorruptionCounted(unittest.TestCase):
    def test_corrupted_output_fails(self) -> None:
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                run.WORK_ROOT.mkdir(exist_ok=True)
                workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK_ROOT)
                try:
                    proc = subprocess.run(
                        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
                         "--seed", "1", "--seconds", "0.2", "--smoke", "--corrupt",
                         "--workdir", workdir],
                        env=run.worker_env(), capture_output=True, text=True, timeout=180,
                    )
                finally:
                    shutil.rmtree(workdir, ignore_errors=True)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = last_json(proc.stdout)
                self.assertEqual(result["failed"], 1, proc.stderr)
                self.assertIn("op failed", proc.stderr)


class RefusesEmptyCheckout(unittest.TestCase):
    def test_no_sources(self) -> None:
        run.WORK_ROOT.mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK_ROOT))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, *SPEC["command"][1:], "--workload", SPEC["workloads"][0]["name"],
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180,
            )
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    try:
        unittest.main()
    finally:
        try:
            run.WORK_ROOT.rmdir()
        except OSError:
            pass
