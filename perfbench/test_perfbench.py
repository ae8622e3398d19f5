#!/usr/bin/env python3
"""The benchmark's own tests, on toy-sized workloads (about a minute).

    python3 perfbench/test_perfbench.py

- every workload run.py offers emits every metric BENCHMARK.json names,
  with its unit, traced and untraced;
- a planted wrong answer (one convoy's end tick shortened) is caught by
  the correctness gate;
- the traced run's decomposed query pipeline returns engine.Execute's
  convoys, and two traced runs of one seed report identical counts;
- the benchmark fails, printing no result, without the system under test.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
# Every workload run.py offers, dense_esweep too, which BENCHMARK.json
# leaves out while the default plan answers it wrongly at bench scale.
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402


def run(workload, seed=7, trace=0, plant=False, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--scale", "toy"]
    if plant:
        cmd.append("--plant-wrong")
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        return proc.returncode, None, None
    return 0, json.loads(lines[-2])["report"], json.loads(lines[-1])


class PerfbenchTest(unittest.TestCase):
    def test_declared_workloads_are_offered(self):
        declared = [w["name"] for w in SPEC["workloads"]]
        self.assertLessEqual(set(declared), set(WORKLOADS))

    def test_every_metric_with_its_unit(self):
        for trace, declared in ((0, SPEC["end_to_end"]),
                                (1, SPEC["per_layer"])):
            want = {m["name"]: m["unit"] for m in declared}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    code, report, result = run(workload, trace=trace)
                    self.assertEqual(code, 0)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, want)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.assertTrue(report["harness_ok"], report["notes"])
                    for name in ("nproc", "cpu", "kernel_isa", "compiler",
                                 "build_type"):
                        self.assertIn(name, report["host"])

    def test_planted_wrong_answer_is_caught(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, clean, _ = run(workload)
                _, planted, result = run(workload, plant=True)
                # Query workloads repeat passes for as long as the clock
                # allows, so compare distinct wrong queries there.
                key = "wrong_queries" if "wrong_queries" in clean \
                    else "wrong_answers"
                self.assertEqual(planted[key], clean[key] + 1)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_traced_pipeline_matches_execute_and_counts_repeat(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                counts = []
                faults = []
                for _ in range(2):
                    code, report, result = run(workload, seed=11, trace=1)
                    self.assertEqual(code, 0)
                    # harness_ok is false when the decomposed pipeline's
                    # convoys differ from engine.Execute's.
                    self.assertTrue(report["harness_ok"], report["notes"])
                    self.assertEqual(
                        result["metrics"]["canary.drifted_counts"]["value"], 0)
                    with open(report["trace_file"] + ".counts") as f:
                        counts.append(f.read())
                    faults.append(report["refine_minflt_first_pass"])
                self.assertEqual(counts[0], counts[1])
                self.assertLessEqual(abs(faults[0] - faults[1]),
                                     max(64, 0.005 * faults[0]))

    def test_fails_without_the_system_under_test(self):
        bare = os.path.join(ROOT, ".bench_build", "bare-checkout")
        shutil.rmtree(bare, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload",
                 WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace",
                 "0"], cwd=bare, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True, timeout=180)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
