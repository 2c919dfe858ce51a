"""Tests of the benchmark's output and of run.py's result check.

Run from perfbench/ (ctest in the benchmark build does this):

    PERFBENCH_BIN=<build>/perfbench python3 -m unittest -v test_run

PERFBENCH_BIN defaults to perfbench inside run.py's build directory.
"""

import json
import os
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

BIN = os.environ.get("PERFBENCH_BIN", str(run.build_dir() / "perfbench"))


def invoke(workload, trace, env=None, seconds="0.2"):
    return subprocess.run(
        [BIN, "--workload", workload, "--seed", "3", "--seconds", seconds,
         "--trace", str(trace)],
        capture_output=True, text=True, env=env, timeout=300)


class OutputTest(unittest.TestCase):
    spec = run.load_spec()

    def test_every_metric_is_printed_with_its_unit(self):
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    proc = invoke(workload, trace)
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                    result = json.loads(proc.stdout.splitlines()[-1])
                    self.assertEqual(run.validate(result, self.spec, trace),
                                     [])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreater(result["attempted"], 1)

    def test_stamp_records_the_worker_count(self):
        nproc = len(os.sched_getaffinity(0))
        for workload in ("crypt-auto", "serve"):
            with self.subTest(workload=workload):
                proc = invoke(workload, 0)
                self.assertEqual(proc.returncode, 0, proc.stderr)
                stamp = json.loads(proc.stdout.splitlines()[-1])["stamp"]
                self.assertEqual(stamp["nproc"], nproc)
                spare = 1 if workload == "serve" and nproc > 1 else 0
                self.assertEqual(stamp["workers"], nproc - spare)

    def test_workloads_match_benchmark_json(self):
        self.assertEqual(sorted(w["name"] for w in self.spec["workloads"]),
                         sorted(run.WORKLOADS))

    def test_refuses_a_library_override(self):
        proc = invoke("serve", 0, env=dict(os.environ, SPD3_STEP_FILTER="off"))
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)
        self.assertIn("SPD3_STEP_FILTER", proc.stderr)

    def test_rejects_bad_arguments(self):
        for args in (["--workload", "nope", "--seed", "1", "--seconds", "1",
                      "--trace", "0"],
                     ["--workload", "serve", "--seed", "-1", "--seconds", "1",
                      "--trace", "0"],
                     ["--workload", "serve", "--seed", "1", "--seconds", "0",
                      "--trace", "0"],
                     ["--workload", "serve", "--seed", "1", "--seconds", "1"]):
            with self.subTest(args=args):
                proc = subprocess.run([BIN] + args, capture_output=True,
                                      text=True, timeout=60)
                self.assertEqual(proc.returncode, 2)
                self.assertEqual(proc.stdout, "")


class ValidateTest(unittest.TestCase):
    spec = {"end_to_end": [{"name": "a_ms", "unit": "ms"},
                           {"name": "b_s", "unit": "s"}],
            "per_layer": [{"name": "c", "unit": "count"}]}

    def result(self, metrics, **kw):
        r = {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}
        r.update(kw)
        return r

    def test_accepts_a_complete_result(self):
        r = self.result({"a_ms": {"value": 1.5, "unit": "ms"},
                         "b_s": {"value": 2, "unit": "s"}})
        self.assertEqual(run.validate(r, self.spec, 0), [])

    def test_flags_missing_extra_and_mislabelled_metrics(self):
        r = self.result({"a_ms": {"value": 1.5, "unit": "s"},
                         "c": {"value": 1, "unit": "count"}})
        problems = run.validate(r, self.spec, 0)
        self.assertIn("metric b_s missing", problems)
        self.assertIn("metric c not in BENCHMARK.json", problems)
        self.assertIn("metric a_ms has unit s, BENCHMARK.json says ms",
                      problems)

    def test_checks_the_trace_metric_set(self):
        r = self.result({"c": {"value": 0, "unit": "count"}})
        self.assertEqual(run.validate(r, self.spec, 1), [])

    def test_flags_bad_tallies(self):
        r = self.result({"c": {"value": 0, "unit": "count"}}, attempted=0,
                        failed=-1)
        problems = run.validate(r, self.spec, 1)
        self.assertIn("attempted is below 1", problems)
        self.assertIn("failed is not a whole number", problems)


if __name__ == "__main__":
    unittest.main()
