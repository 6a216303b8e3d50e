#!/usr/bin/env python
"""Export the micro-benchmark suite to ``BENCH_micro.json``.

Runs ``benchmarks/test_bench_micro.py`` under pytest-benchmark, distills
the raw report into a compact, diff-friendly summary, and writes it to
``BENCH_micro.json`` at the repository root so the performance
trajectory is tracked across PRs (commit the file as evidence).

Usage::

    PYTHONPATH=src python benchmarks/export_bench.py          # full suite
    PYTHONPATH=src python benchmarks/export_bench.py -k atom  # subset

Fast-path benchmarks are paired with their ``*_reference`` twins; the
summary includes the resulting speedups so regressions are visible in
the JSON diff without re-deriving them.  ``REPRO_SCALE`` (consumed by
``benchmarks/conftest.py`` for the experiment-level suites) is recorded
for reproducibility; the micro suite itself is scale-independent.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUTPUT_PATH = os.path.join(REPO_ROOT, "BENCH_micro.json")

#: fast-path benchmark -> paired reference benchmark.  These ratios sit
#: under the CI regression gate: both sides run the *same* workload, so
#: the ratio is machine-insensitive and a drop means a real regression.
PAIRED_BENCHMARKS = {
    "test_bench_atom_extraction": "test_bench_atom_extraction_reference",
    "test_bench_end_to_end_test_case": "test_bench_end_to_end_test_case_reference",
    "test_bench_batch_ibex_simulation": (
        "test_bench_batch_ibex_simulation_reference"
    ),
    "test_bench_batch_cva6_simulation": (
        "test_bench_batch_cva6_simulation_reference"
    ),
}

#: Cross-algorithm pairs reported for context but NOT gated: the
#: adaptive/fixed ratio mixes per-round MILP solver time against
#: simulation time, so it shifts with the runner's scipy build and
#: legitimately sits below 1.0 on this tiny scenario where simulation
#: is cheap.  The adaptive win is the *deterministic* cases-to-converge
#: count, recorded in each entry's extra_info.  The round-pipeline
#: pair times one adaptive corpus at the default width against width 1:
#: its ratio follows the runner's CPU count (1.0 on one CPU).  So does
#: the directed-verify pair, which times ``check_contract_satisfaction``
#: on the pool against the case-at-a-time loop it replaced.
INFORMATIONAL_PAIRS = {
    "test_bench_directed_verify": "test_bench_directed_verify_reference",
    "test_bench_adaptive_convergence": "test_bench_adaptive_convergence_reference",
    "test_bench_adaptive_round_pipeline": (
        "test_bench_adaptive_round_pipeline_reference"
    ),
}

_STAT_FIELDS = ("min", "max", "mean", "median", "stddev", "rounds")


def run_benchmarks(selector: str, raw_json_path: str) -> None:
    """Run the micro suite, writing pytest-benchmark's raw JSON."""
    command = [
        sys.executable,
        "-m",
        "pytest",
        os.path.join("benchmarks", "test_bench_micro.py"),
        "-q",
        "--benchmark-json",
        raw_json_path,
    ]
    if selector:
        command.extend(["-k", selector])
    env = dict(os.environ)
    src = os.path.join(REPO_ROOT, "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src if not existing else os.pathsep.join((src, existing))
    subprocess.run(command, check=True, cwd=REPO_ROOT, env=env)


def summarize(raw_report: dict) -> dict:
    """Distill the raw report into ``{benchmark: {stat: value}}``.

    A benchmark's ``extra_info`` (e.g. the adaptive pair's
    deterministic ``cases_to_converge`` counts) rides along verbatim.
    """
    summary = {}
    for entry in raw_report.get("benchmarks", []):
        stats = entry.get("stats", {})
        distilled = {field: stats.get(field) for field in _STAT_FIELDS}
        if entry.get("extra_info"):
            distilled["extra_info"] = entry["extra_info"]
        summary[entry["name"]] = distilled
    return summary


def speedups(summary: dict, pairs: dict = None) -> dict:
    """Fast-path vs reference mean-time speedups for the paired runs."""
    ratios = {}
    for fast_name, reference_name in (pairs or PAIRED_BENCHMARKS).items():
        fast = summary.get(fast_name, {}).get("mean")
        reference = summary.get(reference_name, {}).get("mean")
        if fast and reference:
            ratios[fast_name] = round(reference / fast, 3)
    return ratios


def export(selector: str = "") -> dict:
    with tempfile.NamedTemporaryFile(
        suffix=".json", prefix="bench-raw-", delete=False
    ) as handle:
        raw_json_path = handle.name
    try:
        run_benchmarks(selector, raw_json_path)
        with open(raw_json_path) as stream:
            raw_report = json.load(stream)
    finally:
        os.unlink(raw_json_path)

    summary = summarize(raw_report)
    if selector and os.path.exists(OUTPUT_PATH):
        # A -k subset must not erase the rest of the evidence file:
        # merge the re-measured entries over the existing document.
        with open(OUTPUT_PATH) as stream:
            previous = json.load(stream).get("benchmarks", {})
        previous.update(summary)
        summary = previous
    document = {
        "suite": "benchmarks/test_bench_micro.py",
        "unit": "seconds",
        "datetime": raw_report.get("datetime"),
        "repro_scale": os.environ.get("REPRO_SCALE", "1.0"),
        "machine": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "speedups_vs_reference": speedups(summary),
        "informational_ratios": speedups(summary, INFORMATIONAL_PAIRS),
        "benchmarks": dict(sorted(summary.items())),
    }
    with open(OUTPUT_PATH, "w") as stream:
        json.dump(document, stream, indent=2, sort_keys=False)
        stream.write("\n")
    return document


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "-k",
        dest="selector",
        default="",
        help="pytest -k selector restricting which benchmarks run",
    )
    arguments = parser.parse_args()
    document = export(arguments.selector)
    print("wrote %s (%d benchmarks)" % (OUTPUT_PATH, len(document["benchmarks"])))
    for name, ratio in document["speedups_vs_reference"].items():
        print("  %s: %.2fx vs reference" % (name, ratio))
    for name, ratio in document["informational_ratios"].items():
        print("  %s: %.2fx vs reference (informational, not gated)" % (name, ratio))


if __name__ == "__main__":
    main()
