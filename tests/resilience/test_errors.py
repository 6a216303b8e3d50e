"""The error taxonomy: shard attribution, pickling, classification."""

import pickle

import pytest

from repro.evaluation.backends import EvaluationTask, ShardEvaluator
from repro.evaluation.backends.executors import SerialExecutor
from repro.resilience import (
    ShardExecutionError,
    ShardTimeoutError,
    inject_fault,
    is_retryable,
)

pytestmark = pytest.mark.faults


class TwoArgumentError(Exception):
    """Pickles, but cannot be unpickled: its ``args`` hold one value."""

    def __init__(self, first, second):
        super().__init__(first)


class TestShardExecutionError:
    def test_message_names_the_shard(self):
        error = ShardExecutionError((30, 10), cause="RuntimeError('boom')")
        assert str(error) == (
            "shard (start_id=30, count=10) failed: RuntimeError('boom')"
        )
        assert error.start_id == 30
        assert error.count == 10
        assert not error.fatal

    def test_worker_errors_are_wrapped_with_shard_attribution(self):
        """A bare exception inside ``evaluate`` must surface as a typed
        ShardExecutionError naming ``(start_id, count)`` — the executor
        seam is what pins which test-id window died."""
        task = EvaluationTask(core_name="ibex", seed=3)
        executor = SerialExecutor(worker=ShardEvaluator.from_task(task))
        with inject_fault("worker-error", start_id=20, fail_attempts=10**9):
            with pytest.raises(ShardExecutionError) as info:
                list(executor.run(task, [(0, 10), (20, 10)]))
        assert "(start_id=20, count=10)" in str(info.value)
        assert info.value.shard == (20, 10)
        assert "RuntimeError" in info.value.cause

    def test_survives_the_pool_pickle_boundary(self):
        original = ShardExecutionError((40, 10), cause="boom", fatal=True)
        clone = pickle.loads(pickle.dumps(original))
        assert clone.shard == (40, 10)
        assert clone.cause == "boom"
        assert clone.fatal
        assert str(clone) == str(original)

    def test_original_error_survives_the_pickle_boundary(self):
        original = ShardExecutionError(
            (40, 10), cause="boom", original=ValueError("boom")
        )
        clone = pickle.loads(pickle.dumps(original))
        assert isinstance(clone.original, ValueError)
        assert str(clone.original) == "boom"

    def test_unpicklable_original_error_is_dropped(self):
        """An original that cannot round-trip must not take the shard
        attribution down with it."""
        for unpicklable in (TwoArgumentError(1, 2), RuntimeError(lambda: None)):
            error = ShardExecutionError((40, 10), cause="boom", original=unpicklable)
            clone = pickle.loads(pickle.dumps(error))
            assert clone.original is None
            assert clone.shard == (40, 10)
            assert clone.cause == "boom"

    def test_cause_chain_preserved_for_humans(self):
        error = ShardExecutionError((0, 5))
        assert "unknown error" in str(error)


class TestShardTimeoutError:
    def test_message_names_the_deadline(self):
        error = ShardTimeoutError((10, 10), timeout_seconds=0.25)
        assert "exceeded soft deadline of 0.25s" in str(error)
        assert "(start_id=10, count=10)" in str(error)
        assert not error.fatal
        assert is_retryable(error)

    def test_pickles_with_deadline_intact(self):
        clone = pickle.loads(pickle.dumps(ShardTimeoutError((10, 5), 1.5)))
        assert isinstance(clone, ShardTimeoutError)
        assert clone.timeout_seconds == 1.5
        assert clone.shard == (10, 5)
