"""Tests for the multi-process evaluator."""

import pytest

from repro.contracts.riscv_template import build_riscv_template
from repro.evaluation.evaluator import TestCaseEvaluator
from repro.evaluation.parallel import evaluate_parallel
from repro.pipeline import SynthesisPipeline
from repro.testgen.generator import TestCaseGenerator
from repro.uarch.ibex import IbexCore


def sequential_dataset(count, seed):
    template = build_riscv_template()
    generator = TestCaseGenerator(template, seed=seed)
    evaluator = TestCaseEvaluator(IbexCore(), template)
    return evaluator.evaluate_many(generator.iter_generate(count))


def test_empty_count():
    dataset = evaluate_parallel("ibex", 0, seed=1)
    assert len(dataset) == 0


@pytest.mark.parametrize("count", [0, 5])
def test_header_is_the_same_for_every_count(count):
    dataset = evaluate_parallel(
        "ibex",
        count,
        seed=0,
        executor="serial",
        template_name="riscv-mem",
        attacker_name="retirement-timing",
    )
    assert len(dataset) == count
    assert (dataset.core_name, dataset.template_name, dataset.attacker_name) == (
        "ibex",
        "riscv-mem",
        "retirement-timing",
    )


def test_empty_pipeline_run_keeps_its_header():
    dataset = SynthesisPipeline().budget(0).run().dataset
    assert len(dataset) == 0
    assert (dataset.core_name, dataset.template_name, dataset.attacker_name) == (
        "ibex",
        "riscv-rv32im",
        "retirement-timing",
    )


def test_single_process_matches_sequential():
    parallel = evaluate_parallel("ibex", 60, seed=9, processes=1, shard_size=25)
    sequential = sequential_dataset(60, seed=9)
    assert len(parallel) == len(sequential)
    for a, b in zip(parallel, sequential):
        assert a == b


def test_multi_process_matches_sequential():
    parallel = evaluate_parallel("ibex", 120, seed=9, processes=2, shard_size=30)
    sequential = sequential_dataset(120, seed=9)
    assert len(parallel) == len(sequential)
    for a, b in zip(parallel, sequential):
        assert a == b


def test_results_ordered_by_test_id():
    dataset = evaluate_parallel("ibex", 80, seed=2, processes=2, shard_size=16)
    ids = [result.test_id for result in dataset]
    assert ids == sorted(ids) == list(range(80))


def test_metadata_fields():
    dataset = evaluate_parallel("ibex", 10, seed=0, processes=1)
    assert dataset.core_name == "ibex"
    assert dataset.attacker_name == "retirement-timing"


def test_tail_shard_identical_across_paths():
    """Regression: the final tail shard (count not divisible by
    shard_size) and the processes=1 path must go through the same shard
    plan and worker loop as the pool path — byte-identical output."""
    single = evaluate_parallel("ibex", 47, seed=4, processes=1, shard_size=10)
    pooled = evaluate_parallel("ibex", 47, seed=4, processes=2, shard_size=10)
    sequential = sequential_dataset(47, seed=4)
    assert single.to_json() == pooled.to_json() == sequential.to_json()
    assert [result.test_id for result in single] == list(range(47))


def test_single_process_uses_the_common_shard_loop(monkeypatch):
    """processes=1 must not grow a bespoke evaluation path: it has to
    degenerate to the registered serial backend's shard loop."""
    from repro.evaluation.backends import executors as executors_module

    calls = []
    original = executors_module.SerialExecutor.run

    def spy(self, task, shards):
        calls.append(list(shards))
        return original(self, task, shards)

    monkeypatch.setattr(executors_module.SerialExecutor, "run", spy)
    evaluate_parallel("ibex", 25, seed=1, processes=1, shard_size=10)
    assert calls == [[(0, 10), (10, 10), (20, 5)]]
