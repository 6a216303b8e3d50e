"""The round pipeline: every width gives the serial loop's results.

``AdaptiveLoop`` keeps up to ``processes`` rounds (by default the
usable CPUs) in flight: it evaluates the next rounds while earlier ones
solve on a forked solve pool, and settles the rounds in order.  Widths
1, 2 and 3 must agree on everything a run leaves behind — round
records, dataset, manifest bytes, progress callbacks, ``round`` spans,
solver counters and the strategy's final state — under every stopping
rule, including runs that stop before their last round and so drop
rounds started past the stop.
"""

import dataclasses
import multiprocessing

import pytest

from repro.adaptive import AdaptiveLoop
from repro.adaptive import loop as loop_module
from repro.evaluation.backends import executors as executors_module
from repro.metrics.registry import Metrics, install_metrics
from repro.trace import Tracer

pytestmark = pytest.mark.adaptive

SOLVER_COUNTERS = ("solver.cold_solves", "solver.lp_certificates", "solver.warm_starts")
#: Trace fields that are clocks, not results.
CLOCK_FIELDS = ("ts", "start_ts", "seconds", "pid")

_DCACHE = dict(core="ibex-dcache", template="riscv-mem", attacker="cache-state")

#: One scenario per stopping rule, with the rounds each one runs.
SCENARIOS = {
    # Rounds 1, 2 and 4 reuse the previous contract (warm start).
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


def _pin_width(monkeypatch, width):
    """Let the process use ``width`` CPUs, and record the solve pools
    the loop builds."""
    monkeypatch.setattr(executors_module, "usable_cpus", lambda: width)
    pools = []
    real = loop_module.SolvePool

    def spy(solver, workers):
        pools.append(workers)
        return real(solver, workers)

    monkeypatch.setattr(loop_module, "SolvePool", spy)
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
            manifest_path=str(manifest),
            progress=progress.append,
            tracer=tracer,
            **dict(_DCACHE, **settings),
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
    assert sum(serial["counters"].values()) >= rounds_run
    for width in (2, 3):
        assert _outcome(monkeypatch, tmp_path, width, settings) == serial


def test_warm_start_fires_when_the_round_settles(monkeypatch, tmp_path):
    """At width 2 a round is submitted while the previous one still
    solves, so it solves cold and the shortcut applies when it
    settles: the records and counters match the serial loop's."""
    settings, _ = SCENARIOS["budget"]
    serial = _outcome(monkeypatch, tmp_path, 1, settings)
    warm = [record.warm_started for record in serial["records"]]
    assert warm == [False, True, True, False, True, False]
    assert serial["counters"]["solver.warm_starts"] == 3
    pooled = _outcome(monkeypatch, tmp_path, 2, settings)
    assert [record.warm_started for record in pooled["records"]] == warm
    assert pooled["counters"] == serial["counters"]


def test_width_follows_processes_and_the_rounds_left(monkeypatch):
    pools = _pin_width(monkeypatch, 8)
    settings = dict(generator="coverage", batch=20, stop="budget", seed=7)
    AdaptiveLoop(rounds=3, **dict(_DCACHE, **settings)).run()
    AdaptiveLoop(rounds=4, processes=2, **dict(_DCACHE, **settings)).run()
    AdaptiveLoop(rounds=1, **dict(_DCACHE, **settings)).run()
    assert pools == [3, 2]
    assert multiprocessing.active_children() == []
