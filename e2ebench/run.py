"""End-to-end contract-synthesis benchmark.

Measures the time from "run" to a verified, most-precise contract
through the public ``SynthesisPipeline.run()``, one fresh interpreter
per synthesis, and checks every result against the recorded oracle
(see ``workloads.py``).  One run synthesizes each of ``k`` corpora
:data:`REPEATS` times, in interleaved passes, and keeps the faster
passing synthesis of each corpus; ``k`` is as many corpora as fit in
``--seconds`` at their recorded cost, at least three.  Run from the
repository root::

    python3 e2ebench/run.py --workload ibex-rv32im-12k --seed 0 --seconds 45 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``.  Progress and failure reasons go to standard error.
The runner exits non-zero without a result when the package sources,
the workload or its oracle entries are missing, or when no synthesis
process can start.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from workloads import (
    ORACLE_PATH,
    ROOT,
    SRC,
    WORKLOADS,
    OracleError,
    Workload,
    corpora_count,
    load_oracle,
    select_corpora,
    worker_command,
    worker_env,
)

#: Syntheses of every corpus per run.  The shared host has slow phases
#: of 5 to 30 seconds in which the same work takes up to twice as long;
#: the faster of two syntheses half a run apart rarely falls into one.
REPEATS = 2
#: Wall-clock budget of one run; the last synthesis is cut at this point.
DEADLINE_S = 170.0

END_TO_END = {
    "contract_s": "s",
    "cases_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "contract_fp": "count",
    "ok_ratio": "ratio",
}
PER_LAYER = {
    "setup.import_s": "s",
    "setup.resolve_s": "s",
    "testgen.cases": "count",
    "testgen.busy_s": "s",
    "testgen.us_per_case": "us",
    "evaluation.busy_s": "s",
    "evaluation.sim_s": "s",
    "evaluation.extract_s": "s",
    "evaluation.calls": "count",
    "evaluation.cases_per_call": "count",
    "evaluation.distinguishable": "count",
    "synthesis.build_s": "s",
    "synthesis.solve_s": "s",
    "synthesis.busy_s": "s",
    "synthesis.calls": "count",
    "synthesis.candidates": "count",
    "synthesis.cover_rows": "count",
    "synthesis.fp_rows": "count",
    "synthesis.ilp_rows": "count",
    "synthesis.ilp_vars": "count",
    "synthesis.warm_start_ratio": "ratio",
    "synthesis.contract_atoms": "count",
    "verification.busy_s": "s",
    "adaptive.rounds": "count",
    "adaptive.round_s": "s",
    "pipeline.contract_s": "s",
    "pipeline.unattributed_s": "s",
    "pipeline.attributed_share": "ratio",
    "trace.overhead_s": "s",
}


class Runner:
    """Starts worker interpreters and keeps the run's deadline."""

    def __init__(self, workload: Workload, budget: Optional[int]):
        self.workload = workload
        self.budget = budget
        self.env = worker_env()
        self.deadline = time.monotonic() + DEADLINE_S

    def spawn(self, seed: int, *flags: str) -> Tuple[float, Optional[dict], str]:
        """``(started_at, report, error)`` of one worker process."""
        started = time.time()
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return started, None, "run deadline reached"
        command = worker_command(self.workload, seed, self.budget, *flags)
        try:
            process = subprocess.run(
                command,
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired:  # run() kills and reaps the child
            return started, None, "worker cut at the run deadline"
        lines = process.stdout.strip().splitlines()
        if process.returncode != 0 or not lines:
            tail = process.stderr.strip().splitlines()[-1:]
            return started, None, "worker exit %d: %s" % (process.returncode, tail)
        return started, json.loads(lines[-1]), ""


def problems(report: Optional[dict], error: str, corpus: dict) -> List[str]:
    """Why one synthesis fails its checks (empty when it passes)."""
    if report is None:
        return [error]
    if "error" in report:
        return ["run() raised %s" % report["error"]]
    found = []
    if not report["optimal"]:
        found.append("solve not optimal")
    if not report["satisfied"]:
        found.append("contract unsatisfied on its dataset")
    if report["failures"]:
        found.append("%d failure records" % report["failures"])
    for field in ("digest", "cases", "contract_fp"):
        if report[field] != corpus[field]:
            found.append(
                "%s %s != oracle %s" % (field, report[field], corpus[field])
            )
    return found


def mean_or_zero(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def geomean_or_zero(values) -> float:
    values = list(values)
    return statistics.geometric_mean(values) if values else 0.0


def end_to_end_metrics(setup, plain) -> Dict[str, float]:
    """End-to-end figures of the fastest passing untraced synthesis of
    each corpus: the geometric mean over corpora (one hard ILP instance
    in the expensive stratum moves an arithmetic mean much more; with
    one corpus per cost stratum it varies less across runner seeds than
    the median), except ``contract_fp``, which sums the corpora."""
    reports = list(plain.values())
    return {
        "contract_s": geomean_or_zero(r["contract_s"] for r in reports),
        "cases_per_s": geomean_or_zero(r["cases"] / r["contract_s"] for r in reports),
        "setup_s": statistics.median(
            report["resolve_at"] - started for started, report in setup
        ),
        "peak_rss_mb": geomean_or_zero(r["peak_rss_mb"] for r in reports),
        "contract_fp": float(sum(r["contract_fp"] for r in reports)),
    }


def measure(args) -> Optional[dict]:
    workload = WORKLOADS[args.workload]
    entries = load_oracle(args.oracle, workload, args.budget)
    count = corpora_count(entries, args.seconds / REPEATS)
    corpora = select_corpora(entries, args.seed, count)
    runner = Runner(workload, args.budget)
    traced = bool(args.trace)

    attempted = failed = 0
    setup: List[Tuple[float, dict]] = []
    plain: Dict[int, dict] = {}  # fastest passing untraced synthesis by corpus position
    layered: Dict[int, dict] = {}  # passing traced synthesis by corpus position
    for repeat in range(REPEATS):
        # With --trace 1 the last pass is traced, so the run stays as long.
        with_layers = traced and repeat == REPEATS - 1
        for position, corpus in enumerate(corpora):
            flags = ["--traced"] if with_layers else []
            started, report, error = runner.spawn(corpus["seed"], *flags)
            if report is None and not setup:
                print("first synthesis failed: %s" % error, file=sys.stderr)
                return None
            found = problems(report, error, corpus)
            attempted += 1
            failed += bool(found)
            print(
                "corpus seed %d%s: %s"
                % (
                    corpus["seed"],
                    " (traced)" if with_layers else "",
                    "FAILED: " + "; ".join(found)
                    if found
                    else "%.3f s" % report["contract_s"],
                ),
                file=sys.stderr,
            )
            if report is not None:
                setup.append((started, report))
            if found:
                continue
            if with_layers:
                layered[position] = report
            elif position not in plain or report["contract_s"] < plain[position]["contract_s"]:
                plain[position] = report

    if traced:
        metrics = layer_metrics(setup, plain, layered)
        units = PER_LAYER
    else:
        metrics = end_to_end_metrics(setup, plain)
        metrics["ok_ratio"] = (attempted - failed) / attempted
        units = END_TO_END
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit}
            for name, unit in units.items()
        },
    }


def layer_metrics(setup, plain, layered) -> Dict[str, float]:
    """Per-layer figures: the mean over the traced corpora (means keep
    the layer times additive)."""
    metrics = {
        "setup.import_s": statistics.median(
            report["import_at"] - started for started, report in setup
        ),
        "setup.resolve_s": statistics.median(
            report["resolve_at"] - report["import_at"] for _started, report in setup
        ),
    }
    names = [name for name in PER_LAYER if name not in metrics]
    names.remove("trace.overhead_s")
    for name in names:
        metrics[name] = mean_or_zero(r["layers"][name] for r in layered.values())
    metrics["trace.overhead_s"] = mean_or_zero(
        r["contract_s"] - plain[i]["contract_s"] for i, r in layered.items() if i in plain
    )
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=33.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--budget", type=int, default=None, help="override the workload budget"
    )
    parser.add_argument("--oracle", default=ORACLE_PATH, help="oracle file")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("no package sources at %s" % SRC, file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except (OSError, json.JSONDecodeError, OracleError) as error:
        print("cannot run: %s" % error, file=sys.stderr)
        return 2
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
