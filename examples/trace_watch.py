#!/usr/bin/env python3
"""The observability layer end-to-end: trace a run, fold the file,
render the watch view.

Every layer of the toolchain appends span and event records to one
shared JSONL trace file (:mod:`repro.trace`): the pipeline its phase
spans, executors their shards, the adaptive loop its rounds, a
campaign its cells.  This example traces a small campaign with an
adaptive cell, then consumes the file both ways — the offline metrics
fold and the live ``watch`` frame.  The equivalent from the command
line::

    repro-synthesize campaign run --budgets 100,200 --solver greedy \\
        --campaign-name traced --trace trace.jsonl
    repro-synthesize watch --trace trace.jsonl --once

Run with::

    python examples/trace_watch.py [results-dir]
"""

import os
import sys

from repro.campaign import CampaignSpec, run_campaign
from repro.metrics.report import render_markdown
from repro.pipeline import SynthesisPipeline
from repro.trace import fold_file, render_once


def main():
    results_dir = sys.argv[1] if len(sys.argv) > 1 else "results"
    trace_path = os.path.join(results_dir, "trace.jsonl")
    if os.path.exists(trace_path):
        os.remove(trace_path)

    # A campaign writes campaign/cell records; each cell's pipeline
    # appends its phase spans to the same file.
    spec = CampaignSpec(
        name="traced",
        cores=("ibex",),
        solvers=("greedy",),
        budgets=(100, 200),
        verify=0,
        trace_path=trace_path,
    )
    print("running a traced 2-cell campaign...")
    run_campaign(spec, results_dir=results_dir)

    # An adaptive run interleaves into the same file: round spans carry
    # per-round coverage and contract-size fields.
    print("running a traced adaptive pipeline...")
    (
        SynthesisPipeline()
        .solver("greedy")
        .budget(150, seed=0)
        .adaptive(rounds=3, batch=50, stop="budget")
        .trace(trace_path)
        .run()
    )

    print("\n== fold: per-span summaries and detail tables ==\n")
    print(render_markdown(fold_file(trace_path), slowest=5))

    print("\n== watch: the live frame, from the file alone ==\n")
    print(render_once(trace_path))


if __name__ == "__main__":
    main()
