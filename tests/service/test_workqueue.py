"""WorkQueueExecutor: byte-identity, reuse, retries, and liveness.

These run self-contained with embedded (in-thread) workers; the
subprocess story — real worker processes, SIGKILL recovery — lives in
``test_service_e2e.py``.
"""

import pytest

from repro.evaluation.backends import EXECUTOR_REGISTRY
from repro.evaluation.parallel import evaluate_parallel
from repro.resilience.errors import ShardExecutionError
from repro.resilience.injection import inject_fault
from repro.resilience.retry import RetryPolicy
from repro.service.queue import QueueUnavailableError
from repro.service.workqueue import WorkQueueExecutor

pytestmark = pytest.mark.service

COUNT = 48
SEED = 7


def _executor(tmp_path, **overrides):
    settings = dict(
        queue_dir=str(tmp_path / "queue"),
        embedded_workers=2,
        poll_seconds=0.01,
        wait_for_workers=15.0,
    )
    settings.update(overrides)
    return WorkQueueExecutor(**settings)


@pytest.fixture(scope="module")
def serial_json():
    dataset = evaluate_parallel(
        "ibex", COUNT, seed=SEED, shard_size=11, executor="serial"
    )
    return dataset.to_json()


class TestRegistration:
    def test_registered_with_doc_line(self):
        assert "workqueue" in EXECUTOR_REGISTRY.names()
        assert "service worker" in EXECUTOR_REGISTRY.describe("workqueue")

    def test_marked_external_on_factory_and_instance(self):
        assert getattr(EXECUTOR_REGISTRY.get("workqueue"), "external", False)
        assert WorkQueueExecutor.external

    def test_unbound_queue_raises_actionably(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_QUEUE_DIR", raising=False)
        executor = WorkQueueExecutor(embedded_workers=1)
        with pytest.raises(QueueUnavailableError, match="REPRO_QUEUE_DIR"):
            list(executor.run(_task(), [(0, 10)]))

    def test_environment_binds_the_queue(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_QUEUE_DIR", str(tmp_path / "env-queue"))
        dataset = evaluate_parallel(
            "ibex",
            22,
            seed=1,
            shard_size=11,
            executor=WorkQueueExecutor(embedded_workers=1, poll_seconds=0.01),
        )
        assert len(dataset) == 22


def _task():
    from repro.evaluation.backends.base import EvaluationTask

    return EvaluationTask(core_name="ibex", seed=SEED)


class TestByteIdentity:
    def test_matches_serial_with_embedded_workers(self, tmp_path, serial_json):
        dataset = evaluate_parallel(
            "ibex",
            COUNT,
            seed=SEED,
            shard_size=11,
            executor=_executor(tmp_path),
        )
        assert dataset.to_json() == serial_json

    def test_broker_restart_reuses_finished_jobs(self, tmp_path, serial_json):
        first = _executor(tmp_path)
        evaluate_parallel(
            "ibex", COUNT, seed=SEED, shard_size=11, executor=first
        )
        assert first.last_enqueued == 5  # 48 cases / 11 per shard

        # A fresh broker on the same queue directory: every job id is
        # already done, so nothing is enqueued and the results stream
        # straight from the result files.
        second = _executor(tmp_path, embedded_workers=0, wait_for_workers=0.5)
        dataset = evaluate_parallel(
            "ibex", COUNT, seed=SEED, shard_size=11, executor=second
        )
        assert second.last_enqueued == 0
        assert dataset.to_json() == serial_json

    @pytest.mark.faults
    def test_shard_timeout_still_runs_through_the_queue(self, tmp_path, serial_json):
        """Deadlines belong to the process pool; the work queue bounds
        hung workers with its lease, so a deadline must not divert the
        run into a local pool."""
        executor = _executor(tmp_path, embedded_workers=1)
        dataset = evaluate_parallel(
            "ibex",
            COUNT,
            seed=SEED,
            shard_size=11,
            executor=executor,
            shard_timeout=5.0,
        )
        assert executor.last_enqueued == 5
        assert dataset.to_json() == serial_json


class TestFailureHandling:
    def test_transient_crash_is_requeued_then_succeeds(
        self, tmp_path, serial_json
    ):
        # One embedded worker so the module-global attempt bookkeeping
        # is unambiguous: attempt 1 crashes, the requeue's attempt 2
        # recovers, and the final dataset is still byte-identical.
        executor = _executor(tmp_path, embedded_workers=1)
        with inject_fault("shard-crash", start_id=11, fail_attempts=1):
            dataset = evaluate_parallel(
                "ibex", COUNT, seed=SEED, shard_size=11, executor=executor
            )
        assert dataset.to_json() == serial_json

    def test_permanent_crash_exhausts_the_retry_policy(self, tmp_path):
        executor = _executor(
            tmp_path,
            embedded_workers=1,
            retry=RetryPolicy(max_attempts=2),
        )
        with inject_fault("shard-crash", start_id=0, fail_attempts=10**9):
            with pytest.raises(ShardExecutionError, match="after 2 attempts"):
                evaluate_parallel(
                    "ibex", COUNT, seed=SEED, shard_size=11, executor=executor
                )

    def test_fatal_fault_is_not_retried(self, tmp_path):
        executor = _executor(tmp_path, embedded_workers=1)
        with inject_fault("shard-crash", start_id=0, fatal=True):
            with pytest.raises(ShardExecutionError) as info:
                evaluate_parallel(
                    "ibex", COUNT, seed=SEED, shard_size=11, executor=executor
                )
        assert info.value.fatal


class TestLiveness:
    def test_no_workers_raises_actionably(self, tmp_path):
        executor = _executor(
            tmp_path,
            embedded_workers=0,
            wait_for_workers=0.2,
        )
        with pytest.raises(QueueUnavailableError, match="service worker"):
            list(executor.run(_task(), [(0, 10)]))
