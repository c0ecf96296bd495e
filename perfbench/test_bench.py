#!/usr/bin/env python3
"""The benchmark's own test: every workload at tiny scale.

Run from the root of the repository (builds the harness on first use):

    python3 perfbench/test_bench.py

Checks, per workload, that an untraced run emits every end-to-end metric of
BENCHMARK.json with its unit, that a traced run emits every per-layer metric
with its unit, that both pass their output checks, and that two untraced
runs with the same seed print the same outcome digest.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("city_rank", "storm_greedy", "fig8_round")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run(workload, seed, trace):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    if done.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited "
                             f"{done.returncode}:\n{done.stderr[-2000:]}")
    lines = done.stdout.rstrip("\n").split("\n")
    detail = next(json.loads(line[len("detail "):]) for line in lines
                  if line.startswith("detail "))
    return json.loads(lines[-1]), detail


class BenchmarkTest(unittest.TestCase):
    spec = load_spec()

    def check_metrics(self, result, expected, label):
        self.assertTrue(result["correct"], label)
        self.assertEqual(result["failed"], 0, label)
        self.assertGreaterEqual(result["attempted"], 1, label)
        metrics = result["metrics"]
        self.assertEqual(set(metrics), {m["name"] for m in expected}, label)
        for m in expected:
            got = metrics[m["name"]]
            self.assertEqual(got["unit"], m["unit"], f"{label} {m['name']}")
            self.assertIsInstance(got["value"], (int, float))

    def test_workloads(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(sorted(names), sorted(WORKLOADS))
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, first_detail = run(workload, 7, 0)
                self.check_metrics(first, self.spec["end_to_end"],
                                   f"{workload} untraced")
                _, second_detail = run(workload, 7, 0)
                self.assertEqual(first_detail["digest"],
                                 second_detail["digest"], workload)
                traced, traced_detail = run(workload, 7, 1)
                self.check_metrics(traced, self.spec["per_layer"],
                                   f"{workload} traced")
                self.assertEqual(traced_detail["digest"],
                                 first_detail["digest"], workload)
                self.assertGreaterEqual(
                    traced["metrics"]["trace.coverage"]["value"], 0.95)


if __name__ == "__main__":
    unittest.main()
