"""One contract synthesis in a fresh interpreter.

The runner starts this script once per synthesis and reads the JSON object
it prints as its last line.  Fields:

- ``import_at`` / ``resolve_at``: wall-clock (``time.time()``) instants
  after ``repro`` is imported and after core, template, attacker,
  solver, generator and evaluator (template compilation included) are
  resolved, i.e. at the ``run()`` call;
- ``contract_s``: wall seconds of ``SynthesisPipeline.run()``;
- the facts the runner checks: ``digest``, ``cases``, ``contract_fp``,
  ``optimal``, ``satisfied``, ``failures`` (or ``error`` when ``run()``
  raised);
- ``peak_rss_mb``: the process' maximum resident set size;
- ``layers``: per-layer figures, with ``--traced`` only.

Run from the repository root with ``src`` on ``PYTHONPATH``::

    PYTHONPATH=src python e2ebench/worker.py --workload ibex-rv32im-12k --seed 0
"""

import argparse
import json
import resource
import sys
import time

from repro.evaluation.evaluator import TestCaseEvaluator
from repro.pipeline import SynthesisPipeline  # noqa: F401  (timed import)

IMPORT_AT = time.time()

from workloads import WORKLOADS, dataset_digest  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one benchmark synthesis")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=int, default=None)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    pipeline = WORKLOADS[args.workload].pipeline(args.seed, args.budget)
    template = pipeline.resolve_template()
    core = pipeline.resolve_core()
    attacker = pipeline.resolve_attacker()
    pipeline.resolve_solver()
    pipeline.resolve_generator(template)
    TestCaseEvaluator(core, template, attacker=attacker)
    report = {"import_at": IMPORT_AT, "resolve_at": time.time()}

    timers = None
    if args.traced:
        from layers import LayerTimers

        timers = LayerTimers()
        timers.install()
    start = time.perf_counter()
    try:
        result = pipeline.run()
    except Exception as error:  # reported to the runner as a failed run
        report["error"] = repr(error)
        print(json.dumps(report))
        return 0
    finally:
        contract_s = time.perf_counter() - start
        if timers is not None:
            timers.uninstall()

    report.update(
        contract_s=contract_s,
        digest=dataset_digest(result.dataset),
        cases=len(result.dataset),
        contract_fp=result.false_positives,
        optimal=bool(result.synthesis.solver_result.optimal),
        satisfied=bool(result.satisfied),
        failures=len(result.failures),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if timers is not None:
        report["layers"] = timers.metrics(result, contract_s)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
