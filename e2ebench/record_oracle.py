"""Record the benchmark's correctness oracle.

For each workload, runs the pipeline on the ``"reference"`` fast path
(the repository's scalar test oracle) for generator seeds 0, 1, 2, ...
until ``--count`` seeds finished with an optimal, satisfied contract,
and writes their dataset digest, case count and false-positive count
to the oracle file.  Seeds whose run raised or produced a non-optimal
or unsatisfied contract are listed under ``excluded``.  Then it times
benchmark workers on the recorded seeds, on the default fast path, and
records the fastest as ``cost_s``, by which the runner picks its
corpora (``--costs-only`` re-times an existing table).

The CPU models have no RTL reference in this repository, so the oracle
pins the toolchain's own reference path, not the hardware: it says the
fast paths and the solver reproduce it, not that the models are
accurate.

Run from the repository root::

    PYTHONPATH=src python e2ebench/record_oracle.py --count 40 --workload ibex-rv32im-12k
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from workloads import (
    ORACLE_PATH,
    ROOT,
    WORKLOADS,
    Workload,
    dataset_digest,
    worker_command,
    worker_env,
)

#: Timed passes over a workload's corpora when recording ``cost_s``.
COST_PASSES = 3


def record_workload(workload: Workload, count: int, budget=None, log=None) -> dict:
    """Reference-path oracle entries for the first ``count`` good seeds."""
    seeds, excluded = [], []
    seed = 0
    while len(seeds) < count:
        try:
            result = workload.pipeline(seed, budget, fastpath="reference").run()
        except Exception as error:  # a failing seed is recorded, not fatal
            entry, good = {"seed": seed, "reason": repr(error)}, False
        else:
            optimal = result.synthesis.solver_result.optimal
            good = bool(optimal and result.satisfied and not result.failures)
            entry = {"seed": seed}
            if good:
                entry.update(
                    digest=dataset_digest(result.dataset),
                    cases=len(result.dataset),
                    contract_fp=result.false_positives,
                )
            else:
                entry["reason"] = "optimal=%s satisfied=%s failures=%d" % (
                    optimal,
                    result.satisfied,
                    len(result.failures),
                )
        (seeds if good else excluded).append(entry)
        if log is not None:
            print("%s %s" % (workload.name, entry), file=log)
        seed += 1
    record_costs(workload, seeds, budget, log)
    return {"config": workload.config(budget), "seeds": seeds, "excluded": excluded}


def record_costs(workload: Workload, entries: list, budget=None, log=None) -> None:
    """Set each entry's ``cost_s``: wall seconds of one worker process
    (interpreter start, set-up and ``run()``) on its corpus, the fastest
    of :data:`COST_PASSES` passes over all entries.  A single pass ranks
    corpora by the host's slow phases as much as by their cost."""
    env = worker_env()
    costs = {}
    for _ in range(COST_PASSES):
        for entry in entries:
            start = time.perf_counter()
            subprocess.run(
                worker_command(workload, entry["seed"], budget),
                cwd=ROOT,
                env=env,
                check=True,
                capture_output=True,
            )
            seconds = time.perf_counter() - start
            costs[entry["seed"]] = min(seconds, costs.get(entry["seed"], seconds))
            if log is not None:
                print("%s seed %d took %.2f s" % (workload.name, entry["seed"], seconds), file=log)
    for entry in entries:
        entry["cost_s"] = round(costs[entry["seed"]], 2)


def merge_into(path: str, name: str, record: dict) -> None:
    """Replace ``name``'s record in the oracle file at ``path``."""
    table = {}
    if os.path.exists(path):
        with open(path) as stream:
            table = json.load(stream)
    table[name] = record
    with open(path, "w") as stream:
        json.dump(table, stream, indent=1, sort_keys=True)
        stream.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--count", type=int, default=40)
    parser.add_argument("--budget", type=int, default=None)
    parser.add_argument("--output", default=ORACLE_PATH)
    parser.add_argument(
        "--costs-only",
        action="store_true",
        help="re-time the recorded seeds of the output file, keep the rest",
    )
    args = parser.parse_args(argv)
    for name in args.workload or sorted(WORKLOADS):
        workload = WORKLOADS[name]
        if args.costs_only:
            with open(args.output) as stream:
                record = json.load(stream)[name]
            record_costs(workload, record["seeds"], args.budget, log=sys.stderr)
        else:
            record = record_workload(workload, args.count, args.budget, log=sys.stderr)
        merge_into(args.output, name, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
