"""The round pipeline: every width gives the serial loop's results.

``AdaptiveLoop`` keeps up to ``processes`` rounds (by default the
usable CPUs) in flight: it evaluates the next rounds while earlier ones
solve on the run's forked worker pool, and settles the rounds in order.  Widths
1, 2 and 3 must agree on everything a run leaves behind — round
records, dataset, manifest bytes, progress callbacks, ``round`` spans,
solver counters and the strategy's final state — under every stopping
rule, including runs that stop before their last round and so drop
rounds started past the stop.  Every settled round holds the
``(false positives, atoms)`` optimum of its cumulative dataset.
"""

import dataclasses
import multiprocessing

import pytest

from repro.adaptive import AdaptiveLoop
from repro.evaluation.backends import executors as executors_module
from repro.evaluation.results import EvaluationDataset
from repro.forkpool import ForkPool
from repro.metrics.registry import Metrics, install_metrics
from repro.pipeline.config import AdaptivePlan, PipelineConfig
from repro.synthesis.ilp import build_ilp_instance
from repro.synthesis.solvers import BranchAndBoundSolver
from repro.trace import Tracer

pytestmark = pytest.mark.adaptive

SOLVER_COUNTERS = ("solver.cold_solves", "solver.lp_certificates")
#: Trace fields that are clocks, not results.
CLOCK_FIELDS = ("ts", "start_ts", "seconds", "pid")

_DCACHE = dict(core="ibex-dcache", template="riscv-mem", attacker="cache-state")

#: One scenario per stopping rule, with the rounds each one runs.
SCENARIOS = {
    "budget": (
        dict(
            core="ibex",
            template="riscv-rv32im",
            attacker="retirement-timing",
            generator="random",
            rounds=6,
            batch=15,
            stop="budget",
            seed=1,
        ),
        6,
    ),
    "contract-stable": (
        dict(generator="random", rounds=8, batch=40, stop="contract-stable", seed=3),
        6,
    ),
    "full-coverage": (
        dict(generator="coverage", rounds=6, batch=40, stop="full-coverage", seed=7),
        2,
    ),
}


def _config(rounds, batch, stop, **axes):
    """A scenario's configuration: its plan, on the ibex-dcache axes
    unless it names its own."""
    return PipelineConfig(
        adaptive=AdaptivePlan(rounds, batch, stop), **dict(_DCACHE, **axes)
    )


def _pin_width(monkeypatch, width):
    """Let the process use ``width`` CPUs, and record the size of every
    worker pool the loop forks."""
    monkeypatch.setattr(executors_module, "usable_cpus", lambda: width)
    pools = []
    real = ForkPool._fork

    def spy(pool):
        pools.append(pool.workers)
        return real(pool)

    monkeypatch.setattr(ForkPool, "_fork", spy)
    return pools


def _outcome(monkeypatch, tmp_path, width, settings):
    """Everything one run leaves behind, clocks removed."""
    pools = _pin_width(monkeypatch, width)
    progress = []
    spans = []
    tracer = Tracer(None, collector=spans)
    metrics = Metrics(tracer)
    previous = install_metrics(metrics)
    manifest = tmp_path / ("rounds-%d.jsonl" % width)
    try:
        loop = AdaptiveLoop(
            _config(**settings),
            manifest_path=str(manifest),
            progress=progress.append,
            tracer=tracer,
        )
        result = loop.run()
    finally:
        install_metrics(previous)
    assert multiprocessing.active_children() == []
    assert pools == ([width] if width > 1 else [])

    def unclocked(record):
        return dataclasses.replace(record, seconds=0.0)

    return dict(
        records=[unclocked(record) for record in result.records],
        progress=[unclocked(record) for record in progress],
        stop_reason=result.stop_reason,
        dataset=result.dataset.to_json(),
        contract=sorted(result.contract.atom_ids),
        manifest=manifest.read_bytes(),
        counters={name: metrics.counter(name).value for name in SOLVER_COUNTERS},
        spans=[
            {key: value for key, value in span.items() if key not in CLOCK_FIELDS}
            for span in spans
            if span["kind"] == "round"
        ],
        strategy=loop.strategy.state(),
    )


@pytest.mark.parametrize("rule", sorted(SCENARIOS))
def test_every_width_matches_the_serial_loop(monkeypatch, tmp_path, rule):
    settings, rounds_run = SCENARIOS[rule]
    serial = _outcome(monkeypatch, tmp_path, 1, settings)
    assert len(serial["records"]) == rounds_run
    assert len(serial["spans"]) == rounds_run
    assert serial["counters"]["solver.cold_solves"] == rounds_run
    dataset = EvaluationDataset.from_json(serial["dataset"])
    for record in serial["records"]:
        prefix = dataset.prefix(record.cumulative_cases)
        optimum = BranchAndBoundSolver().solve(build_ilp_instance(prefix))
        assert optimum.optimal
        assert (record.false_positives, record.contract_size) == (
            optimum.false_positives,
            len(optimum.selected_atom_ids),
        )
    for width in (2, 3):
        assert _outcome(monkeypatch, tmp_path, width, settings) == serial


def test_width_follows_processes_and_the_rounds_left(monkeypatch):
    pools = _pin_width(monkeypatch, 8)
    settings = dict(generator="coverage", batch=20, stop="budget", seed=7)
    AdaptiveLoop(_config(rounds=3, **settings)).run()
    AdaptiveLoop(_config(rounds=4, **settings), processes=2).run()
    AdaptiveLoop(_config(rounds=1, **settings)).run()
    assert pools == [3, 2]
    assert multiprocessing.active_children() == []
