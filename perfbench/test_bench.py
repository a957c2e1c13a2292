#!/usr/bin/env python3
"""The benchmark's own tests.

Run from the root of a checkout:

    python3 perfbench/test_bench.py

They build perfbench and its unit tests (as perfbench/run.py does),
then check, at a tiny size, that every workload prints every metric
BENCHMARK.json lists, with its unit, in a well-formed result line, on
two seeds; and that the unit tests of the correctness checks (each
check rejects a deliberately wrong input) pass.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402  (perfbench/run.py: the build helpers)

BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def build_all():
    out_dir = run.build_dir()
    run.build(out_dir)
    subprocess.run(["cmake", "--build", out_dir, "--target",
                    "perfbench_tests"], check=True, stdout=sys.stderr)
    return out_dir


class BenchmarkOutput(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.out_dir = build_all()

    def run_tiny(self, workload, trace, seed):
        proc = subprocess.run(
            [os.path.join(self.out_dir, "perfbench"), "--workload", workload,
             "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
             "--tiny"], capture_output=True, text=True, timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stdout[-3000:])
        lines = proc.stdout.strip().splitlines()
        context = json.loads(lines[0])["context"]
        self.assertEqual(context["seed"], seed)
        self.assertIn("build_type", context)
        return json.loads(lines[-1])

    def check_metrics(self, result, listed):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in listed})
        for m in listed:
            self.assertEqual(metrics[m["name"]]["unit"], m["unit"], m["name"])
            self.assertIsInstance(metrics[m["name"]]["value"], (int, float))

    def test_end_to_end_metrics_on_two_seeds(self):
        for workload in WORKLOADS:
            for seed in (1, 2):
                with self.subTest(workload=workload, seed=seed):
                    result = self.run_tiny(workload, 0, seed)
                    self.check_metrics(result, BENCH["end_to_end"])
                    for m in BENCH["end_to_end"]:
                        self.assertNotEqual(
                            result["metrics"][m["name"]]["value"], 0,
                            m["name"])

    def test_per_layer_metrics(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check_metrics(self.run_tiny(workload, 1, 1),
                                   BENCH["per_layer"])

    def test_checks_reject_wrong_outputs(self):
        proc = subprocess.run(
            [os.path.join(self.out_dir, "perfbench_tests")],
            capture_output=True, text=True, timeout=170)
        self.assertEqual(proc.returncode, 0, proc.stdout[-3000:])


if __name__ == "__main__":
    unittest.main()
