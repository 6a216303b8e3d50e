"""Executor backends: equivalence, shard planning, and checkpointing.

The executor contract is strict: every registered backend must produce
a dataset *byte-identical* to the sequential
``TestCaseEvaluator.evaluate_many`` output for the same seed, and a
partially checkpointed run must complete to the same dataset while
re-evaluating only the missing shards.
"""

import json

import pytest

from repro.contracts.riscv_template import build_riscv_template
from repro.evaluation.backends import (
    EXECUTOR_REGISTRY,
    EvaluationTask,
    ManifestKeyError,
    SerialExecutor,
    ShardManifest,
    plan_shards,
)
from repro.evaluation.evaluator import TestCaseEvaluator
from repro.evaluation.parallel import evaluate_parallel
from repro.testgen.generator import TestCaseGenerator
from repro.uarch.ibex import IbexCore

COUNT = 48
SEED = 7


@pytest.fixture(scope="module")
def sequential_json():
    template = build_riscv_template()
    generator = TestCaseGenerator(template, seed=SEED)
    evaluator = TestCaseEvaluator(IbexCore(), template)
    return evaluator.evaluate_many(generator.iter_generate(COUNT)).to_json()


class TestShardPlan:
    def test_covers_range_exactly_with_tail_shard(self):
        shards = plan_shards(47, 10)
        assert shards == [(0, 10), (10, 10), (20, 10), (30, 10), (40, 7)]
        assert sum(count for _start, count in shards) == 47

    def test_single_shard_and_exact_division(self):
        assert plan_shards(10, 250) == [(0, 10)]
        assert plan_shards(20, 10) == [(0, 10), (10, 10)]

    def test_rejects_non_positive_shard_size(self):
        with pytest.raises(ValueError, match="shard_size"):
            plan_shards(10, 0)


class TestBackendEquivalence:
    @pytest.mark.parametrize("name", EXECUTOR_REGISTRY.names())
    def test_backend_matches_sequential_evaluator(self, name, sequential_json):
        dataset = evaluate_parallel(
            "ibex",
            COUNT,
            seed=SEED,
            processes=2,
            shard_size=11,
            executor=name,
        )
        assert dataset.to_json() == sequential_json

    def test_executor_instance_accepted(self, sequential_json):
        dataset = evaluate_parallel(
            "ibex", COUNT, seed=SEED, shard_size=13, executor=SerialExecutor()
        )
        assert dataset.to_json() == sequential_json

    def test_unknown_executor_raises_with_choices(self):
        with pytest.raises(ValueError, match="unknown executor"):
            evaluate_parallel("ibex", 10, seed=1, executor="quantum")


class TestProgressEvents:
    def test_one_event_per_shard_with_running_totals(self):
        events = []
        evaluate_parallel(
            "ibex",
            35,
            seed=2,
            shard_size=10,
            executor="serial",
            progress=events.append,
        )
        assert [event.shard for event in events] == plan_shards(35, 10)
        assert [event.completed_shards for event in events] == [1, 2, 3, 4]
        assert events[-1].completed_cases == events[-1].total_cases == 35
        assert all(not event.resumed for event in events)
        assert all(event.elapsed_seconds >= 0 for event in events)


    def test_pool_events_arrive_in_plan_order(self, monkeypatch):
        """Pool shards complete in any order but are yielded in plan
        order: a later shard that finishes first waits for the ones
        before it."""
        import time

        from repro.evaluation.backends import ShardEvaluator

        evaluate = ShardEvaluator.evaluate

        def first_shard_slowest(worker, shard):
            if shard[0] == 0:
                time.sleep(0.3)
            return evaluate(worker, shard)

        monkeypatch.setattr(ShardEvaluator, "evaluate", first_shard_slowest)
        events = []
        evaluate_parallel(
            "ibex",
            30,
            seed=2,
            shard_size=10,
            processes=2,
            executor="multiprocess",
            progress=events.append,
        )
        assert [event.shard for event in events] == plan_shards(30, 10)


class TestPoolSizing:
    """Pools are sized by the CPUs the process may run on."""

    @pytest.mark.parametrize("cpus, expected", [(1, 1), (3, 3), (64, 8)])
    def test_default_size_follows_the_affinity_mask(self, monkeypatch, cpus, expected):
        from repro.evaluation.backends import executors as executors_module

        monkeypatch.setattr(
            executors_module.os,
            "sched_getaffinity",
            lambda pid: set(range(cpus)),
            raising=False,
        )
        assert executors_module.default_processes(None) == expected
        # An explicit worker count always wins.
        assert executors_module.default_processes(5) == 5


class TestManifestCheckpointing:
    def _manifest_path(self, tmp_path):
        return str(tmp_path / "run.shards.jsonl")

    def test_interrupted_run_resumes_to_identical_dataset(self, tmp_path):
        """The kill/resume scenario: a run dying after two shards keeps
        them, and the resumed run evaluates only the other three."""
        path = self._manifest_path(tmp_path)

        class Killed(Exception):
            pass

        def kill_after_two(event):
            if event.completed_shards == 2:
                raise Killed()

        with pytest.raises(Killed):
            evaluate_parallel(
                "ibex",
                50,
                seed=3,
                shard_size=10,
                executor="serial",
                manifest_path=path,
                progress=kill_after_two,
            )
        with open(path) as stream:
            lines = stream.read().splitlines()
        assert len(lines) == 3  # header + the two completed shards

        events = []
        resumed = evaluate_parallel(
            "ibex",
            50,
            seed=3,
            shard_size=10,
            executor="serial",
            manifest_path=path,
            progress=events.append,
        )
        assert [event.resumed for event in events] == [
            True,
            True,
            False,
            False,
            False,
        ]
        full = evaluate_parallel("ibex", 50, seed=3, shard_size=10, executor="serial")
        assert resumed.to_json() == full.to_json()

    def test_completed_manifest_reuses_every_shard(self, tmp_path):
        path = self._manifest_path(tmp_path)
        first = evaluate_parallel(
            "ibex", 30, seed=5, shard_size=10, executor="serial", manifest_path=path
        )
        events = []
        second = evaluate_parallel(
            "ibex",
            30,
            seed=5,
            shard_size=10,
            executor="serial",
            manifest_path=path,
            progress=events.append,
        )
        assert all(event.resumed for event in events)
        assert second.to_json() == first.to_json()

    def test_budget_extension_reuses_completed_shards(self, tmp_path):
        """Shards are keyed by (start, count) and generated per test
        id, so a bigger budget resumes from the same manifest."""
        path = self._manifest_path(tmp_path)
        evaluate_parallel(
            "ibex", 30, seed=5, shard_size=10, executor="serial", manifest_path=path
        )
        events = []
        extended = evaluate_parallel(
            "ibex",
            50,
            seed=5,
            shard_size=10,
            executor="serial",
            manifest_path=path,
            progress=events.append,
        )
        assert [event.resumed for event in events] == [
            True,
            True,
            True,
            False,
            False,
        ]
        fresh = evaluate_parallel("ibex", 50, seed=5, shard_size=10, executor="serial")
        assert extended.to_json() == fresh.to_json()

    def test_key_mismatch_raises_instead_of_mixing_corpora(self, tmp_path):
        path = self._manifest_path(tmp_path)
        evaluate_parallel(
            "ibex", 20, seed=5, shard_size=10, executor="serial", manifest_path=path
        )
        with pytest.raises(ManifestKeyError, match="different evaluation"):
            evaluate_parallel(
                "ibex",
                20,
                seed=6,
                shard_size=10,
                executor="serial",
                manifest_path=path,
            )

    def test_truncated_final_line_is_discarded(self, tmp_path):
        """A run killed mid-append leaves a partial last line; loading
        must drop it and re-evaluate that shard."""
        path = self._manifest_path(tmp_path)
        evaluate_parallel(
            "ibex", 30, seed=5, shard_size=10, executor="serial", manifest_path=path
        )
        with open(path) as stream:
            lines = stream.read().splitlines()
        with open(path, "w") as stream:
            stream.write("\n".join(lines[:-1]) + "\n")
            stream.write(lines[-1][: len(lines[-1]) // 2])  # torn write
        manifest = ShardManifest(path, EvaluationTask("ibex", seed=5).identity())
        assert len(manifest) == 2  # the two intact shards survive
        assert (20, 10) not in manifest.completed  # the torn one does not

        # Loading must also rewrite the torn bytes away: otherwise the
        # resume run's append would concatenate onto the partial line
        # and permanently corrupt the manifest.
        with open(path) as stream:
            assert len(stream.read().splitlines()) == 3  # header + 2 shards
        events = []
        resumed = evaluate_parallel(
            "ibex",
            30,
            seed=5,
            shard_size=10,
            executor="serial",
            manifest_path=path,
            progress=events.append,
        )
        assert [event.resumed for event in events] == [True, True, False]
        fresh = evaluate_parallel("ibex", 30, seed=5, shard_size=10, executor="serial")
        assert resumed.to_json() == fresh.to_json()
        # The re-appended shard is durable: the next load sees all 3.
        reloaded = ShardManifest(path, EvaluationTask("ibex", seed=5).identity())
        assert len(reloaded) == 3

    def test_fully_resumed_run_builds_no_worker_stack(self, tmp_path, monkeypatch):
        """When every shard comes from the manifest there is nothing to
        evaluate, so the (expensive) per-worker template build must not
        happen at all."""
        import repro.evaluation.backends.executors as executors_module

        path = self._manifest_path(tmp_path)
        evaluate_parallel(
            "ibex", 30, seed=5, shard_size=10, executor="serial", manifest_path=path
        )

        def forbidden(self, task):
            raise AssertionError("ShardEvaluator built with zero pending shards")

        monkeypatch.setattr(executors_module.ShardEvaluator, "__init__", forbidden)
        resumed = evaluate_parallel(
            "ibex", 30, seed=5, shard_size=10, executor="serial", manifest_path=path
        )
        assert len(resumed) == 30

    def test_caller_supplied_executor_instance_is_not_mutated(self):
        executor = SerialExecutor()
        evaluate_parallel(
            "ibex", 20, seed=1, shard_size=10, executor=executor, processes=2
        )
        assert executor.processes is None

    def test_corruption_before_final_line_raises(self, tmp_path):
        path = self._manifest_path(tmp_path)
        evaluate_parallel(
            "ibex", 30, seed=5, shard_size=10, executor="serial", manifest_path=path
        )
        with open(path) as stream:
            lines = stream.read().splitlines()
        lines[1] = lines[1][:10]  # corrupt a middle line
        with open(path, "w") as stream:
            stream.write("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="corrupt shard manifest"):
            ShardManifest(path, EvaluationTask("ibex", seed=5).identity())

    def test_manifest_header_key_matches_task_identity(self, tmp_path):
        path = self._manifest_path(tmp_path)
        evaluate_parallel(
            "ibex", 10, seed=1, shard_size=10, executor="serial", manifest_path=path
        )
        with open(path) as stream:
            header = json.loads(stream.readline())
        assert header["manifest"] == "evaluation-shards"
        assert header["key"] == EvaluationTask("ibex", seed=1).identity()
        assert header["key"]["core"] == "ibex"
        assert header["key"]["seed"] == 1

    def test_identity_keys_default_generator_by_absence(self):
        """Back-compat: manifests written before generation strategies
        existed carry no generator key, and the default random strategy
        must keep matching them; non-default strategies (and steered
        states) get their own keys."""
        random_key = EvaluationTask("ibex", seed=1).identity()
        assert "generator" not in random_key
        assert "generator_state" not in random_key
        coverage_key = EvaluationTask(
            "ibex", seed=1, generator_name="coverage"
        ).identity()
        assert coverage_key["generator"] == "coverage"
        steered_key = EvaluationTask(
            "ibex", seed=1, generator_name="coverage", generator_state='{"a": 1}'
        ).identity()
        assert steered_key != coverage_key
        assert steered_key["generator_state"]
