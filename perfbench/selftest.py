#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark: ``python3 perfbench/selftest.py``.

Runs every workload at one cell per claim, checks the result line against
BENCHMARK.json, and checks the correctness gate and the tracing wrappers.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_package()

import conic_butterfly as cb  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    return proc, proc.stdout.splitlines()


class TinyRuns(unittest.TestCase):
    def check_result(self, line: str, names) -> dict:
        result = json.loads(line)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(set(result["metrics"]), set(names))
        return result

    def test_end_to_end_metrics_of_every_workload(self):
        names = [m["name"] for m in SPEC["end_to_end"]]
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                proc, lines = bench("--workload", w["name"], "--seed", "3", "--seconds", "0.1",
                                    "--trace", "0", "--size", "1")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = self.check_result(lines[-1], names)
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_per_layer_metrics(self):
        names = [m["name"] for m in SPEC["per_layer"]]
        for workload in ("modular-sweep", "document-replay"):
            with self.subTest(workload=workload):
                proc, lines = bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                                    "--trace", "1", "--size", "1")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                self.check_result(lines[-1], names)

    def test_default_seed_matches_golden_digest(self):
        proc, lines = bench("--workload", "modular-sweep", "--seconds", "0.1")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        self.assertTrue(json.loads(lines[-1])["correct"])

    def test_refuses_to_run_without_the_program(self):
        bare = ROOT / ".bench_out" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload",
                                   "modular-sweep", "--seed", "1", "--seconds", "1",
                                   "--trace", "0"],
                                  cwd=bare, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


class Gate(unittest.TestCase):
    def test_stream_mismatch_fails_every_op_of_the_repetition(self):
        workload = workloads.make("modular-sweep", 3, size=1)
        reps = [workload.run_rep(spans.NullTracer(), run.time.perf_counter) for _ in range(2)]
        self.assertEqual(run.count_failed(workload, reps, ""), 0)
        self.assertEqual(run.count_failed(workload, reps, "0" * 64), 2 * workload.ops_per_rep)
        reps[1].digest = "0" * 64
        self.assertEqual(run.count_failed(workload, reps, ""), workload.ops_per_rep)


class Wrappers(unittest.TestCase):
    def test_imported_names_are_traced_and_restored(self):
        from conic_butterfly import checks, projective

        original = projective.join
        tracer = spans.Tracer(spans.FULL_TARGETS)
        with tracer:
            self.assertIsNot(checks.join, original)
            self.assertIs(checks.join, projective.join)
            workload = workloads.make("modular-sweep", 3, size=1)
            workload.run_rep(tracer, run.time.perf_counter)
        self.assertIs(checks.join, original)
        self.assertIs(cb.join, original)
        self.assertNotIn("__init__", cb.ProjPoint.__dict__)
        metrics = tracer.layer_metrics()
        self.assertGreater(metrics["projective.join.calls_per_op"], 0)
        self.assertGreater(metrics["projective.ProjPoint.calls_per_op"], 0)
        self.assertEqual(tracer.ops(), workload.ops_per_rep)
        self.assertEqual(tracer.stack, [])


if __name__ == "__main__":
    unittest.main()
