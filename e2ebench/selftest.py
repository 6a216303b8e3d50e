"""Self-test of the end-to-end benchmark at a tiny budget.

Records a throw-away oracle for as many corpora of 30 cases as a run
of each workload synthesizes at least, then checks that the runner
emits every metric named in ``BENCHMARK.json`` with its
unit, that a tampered oracle value is counted as a failed run rather
than passing, and that the runner refuses to run without the package
sources.  Run from the repository root (takes about a minute)::

    python3 e2ebench/selftest.py
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from record_oracle import merge_into, record_workload  # noqa: E402
from run import REPEATS  # noqa: E402
from workloads import MIN_CORPORA, WORKLOADS  # noqa: E402

BUDGET = 30
ONESHOT = "ibex-rv32im-12k"
ADAPTIVE = "ibex-adaptive-8x250"


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        return json.load(stream)


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.scratch = tempfile.mkdtemp(prefix="e2ebench-selftest-")
        cls.oracle = os.path.join(cls.scratch, "oracle.json")
        for name in (ONESHOT, ADAPTIVE):
            record = record_workload(WORKLOADS[name], MIN_CORPORA, BUDGET)
            merge_into(cls.oracle, name, record)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.scratch, ignore_errors=True)

    def run_benchmark(self, workload, trace=0, oracle=None, script=None):
        command = [
            sys.executable,
            script or os.path.join(HERE, "run.py"),
            "--workload", workload,
            "--seed", "0",
            "--seconds", "0",
            "--trace", str(trace),
            "--budget", str(BUDGET),
            "--oracle", oracle or self.oracle,
        ]
        return subprocess.run(command, capture_output=True, text=True, timeout=170)

    def result_of(self, process) -> dict:
        self.assertEqual(process.returncode, 0, process.stderr)
        return json.loads(process.stdout.strip().splitlines()[-1])

    def assert_metrics(self, result, declared):
        self.assertEqual(
            {name: entry["unit"] for name, entry in result["metrics"].items()},
            {entry["name"]: entry["unit"] for entry in declared},
        )
        for name, entry in result["metrics"].items():
            self.assertTrue(math.isfinite(entry["value"]), name)

    def test_end_to_end_metrics_emitted_with_units(self):
        result = self.result_of(self.run_benchmark(ONESHOT))
        self.assertEqual((result["correct"], result["failed"]), (True, 0))
        self.assertEqual(result["attempted"], MIN_CORPORA * REPEATS)
        self.assert_metrics(result, benchmark_spec()["end_to_end"])
        self.assertEqual(result["metrics"]["ok_ratio"]["value"], 1.0)

    def test_per_layer_metrics_emitted_with_units(self):
        result = self.result_of(self.run_benchmark(ADAPTIVE, trace=1))
        self.assertEqual((result["correct"], result["failed"]), (True, 0))
        self.assert_metrics(result, benchmark_spec()["per_layer"])
        self.assertEqual(result["metrics"]["evaluation.cases_per_call"]["value"], 1.0)

    def test_tampered_oracle_counts_as_failed_run(self):
        with open(self.oracle) as stream:
            table = json.load(stream)
        table[ONESHOT]["seeds"][0]["contract_fp"] += 1
        tampered = os.path.join(self.scratch, "tampered.json")
        with open(tampered, "w") as stream:
            json.dump(table, stream)
        result = self.result_of(self.run_benchmark(ONESHOT, oracle=tampered))
        self.assertFalse(result["correct"])
        attempted = MIN_CORPORA * REPEATS
        self.assertEqual((result["attempted"], result["failed"]), (attempted, REPEATS))
        self.assertEqual(
            result["metrics"]["ok_ratio"]["value"], (attempted - REPEATS) / attempted
        )

    def test_refuses_to_run_without_package_sources(self):
        bare = os.path.join(self.scratch, "bare")
        shutil.copytree(HERE, os.path.join(bare, "e2ebench"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        process = self.run_benchmark(
            ONESHOT, script=os.path.join(bare, "e2ebench", "run.py")
        )
        self.assertNotEqual(process.returncode, 0)
        self.assertEqual(process.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
