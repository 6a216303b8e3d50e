"""JobQueue: the event-sourced claim protocol, leases, and the log.

The queue's correctness story is a pure fold over an append-only event
log, so most tests drive the fold directly: append events (through the
public API or raw ``_emit``) and assert the folded state.
"""

import json

import pytest

from repro.evaluation.backends.base import EvaluationTask
from repro.evaluation.results import TestCaseResult
from repro.service.queue import (
    JobQueue,
    QueueUnavailableError,
    job_id_for,
    resolve_queue_root,
    task_from_payload,
    task_to_payload,
)

pytestmark = pytest.mark.service

TASK = EvaluationTask(core_name="ibex", seed=3)
RESULTS = [
    TestCaseResult(0, True, frozenset({1, 2}), "h"),
    TestCaseResult(1, False, frozenset({3}), "m"),
]


def _queue(tmp_path) -> JobQueue:
    return JobQueue(str(tmp_path / "q")).ensure()


class TestTaskPayload:
    def test_payload_round_trips(self):
        payload = task_to_payload(TASK)
        assert task_to_payload(task_from_payload(payload)) == payload

    def test_job_id_is_budget_free_and_stable(self):
        # Nothing in the id depends on the run's total budget or on
        # queue identity — any broker enqueueing the same (task, shard)
        # lands on the same id, which is what makes results reusable.
        assert job_id_for(TASK, (0, 10)) == job_id_for(TASK, (0, 10))
        assert job_id_for(TASK, (0, 10)) != job_id_for(TASK, (10, 10))
        other = EvaluationTask(core_name="ibex", seed=4)
        assert job_id_for(TASK, (0, 10)) != job_id_for(other, (0, 10))


class TestClaimProtocol:
    def test_enqueue_claim_complete(self, tmp_path):
        queue = _queue(tmp_path)
        (job_id,) = queue.enqueue_all(TASK, [(0, 10)])
        assert queue.load().jobs[job_id].status == "pending"

        job = queue.claim("w1", lease_seconds=30.0, now=100.0)
        assert job is not None and job.job_id == job_id
        assert job.status == "running"
        assert job.worker == "w1"
        assert job.lease_until == 130.0
        assert job.attempts == 1
        assert queue.claim("w2", lease_seconds=30.0) is None  # nothing pending

        queue.complete(job, RESULTS)
        state = queue.load()
        assert state.jobs[job_id].status == "done"
        assert queue.read_result(job_id) == RESULTS

    def test_enqueue_is_idempotent(self, tmp_path):
        queue = _queue(tmp_path)
        first = queue.enqueue_all(TASK, [(0, 10), (10, 10)])
        second = queue.enqueue_all(TASK, [(0, 10), (10, 10)])
        assert first == second
        with open(queue.log_path) as stream:
            events = [json.loads(line) for line in stream]
        assert sum(1 for event in events if event.get("event") == "enqueue") == 2

    def test_first_claim_in_file_order_wins(self, tmp_path):
        queue = _queue(tmp_path)
        (job_id,) = queue.enqueue_all(TASK, [(0, 10)])
        # Two workers race: both observed epoch 0 and appended claims.
        queue._emit(
            {"event": "claim", "job": job_id, "epoch": 0, "worker": "w1", "lease": 1e9}
        )
        queue._emit(
            {"event": "claim", "job": job_id, "epoch": 0, "worker": "w2", "lease": 1e9}
        )
        job = queue.load().jobs[job_id]
        assert job.worker == "w1"
        assert job.attempts == 1  # the losing claim is not charged

    def test_stale_epoch_claim_is_ignored(self, tmp_path):
        queue = _queue(tmp_path)
        (job_id,) = queue.enqueue_all(TASK, [(0, 10)])
        job = queue.claim("w1", lease_seconds=0.0, now=100.0)
        queue.requeue(job)  # lease expired -> epoch 1, pending again
        # w1's world ended at epoch 0; its late claim must not apply.
        queue._emit(
            {"event": "claim", "job": job_id, "epoch": 0, "worker": "w1", "lease": 1e9}
        )
        assert queue.load().jobs[job_id].status == "pending"

    def test_requeue_bumps_epoch_and_charges_attempts(self, tmp_path):
        queue = _queue(tmp_path)
        (job_id,) = queue.enqueue_all(TASK, [(0, 10)])
        job = queue.claim("w1", lease_seconds=30.0)
        queue.fail(job, error="boom")
        failed = queue.load().jobs[job_id]
        assert failed.status == "failed" and failed.error == "boom"
        queue.requeue(failed)
        job = queue.claim("w2", lease_seconds=30.0)
        assert job.epoch == 1
        assert job.attempts == 2  # both winning claims count

    def test_done_is_terminal_even_from_a_stale_worker(self, tmp_path):
        # A SIGKILL-survivor finishing after its lease was reclaimed is
        # harmless: per-test-id generation makes its result file
        # byte-identical, so its late done event just settles the job.
        queue = _queue(tmp_path)
        (job_id,) = queue.enqueue_all(TASK, [(0, 10)])
        stale = queue.claim("w1", lease_seconds=0.0, now=100.0)
        queue.requeue(stale)
        queue.complete(stale, RESULTS)  # stale epoch 0 completion
        assert queue.load().jobs[job_id].status == "done"
        assert queue.read_result(job_id) == RESULTS

    def test_reclaim_expired_requeues_only_overdue_leases(self, tmp_path):
        queue = _queue(tmp_path)
        ids = queue.enqueue_all(TASK, [(0, 10), (10, 10)])
        overdue = queue.claim("w1", lease_seconds=10.0, now=100.0)
        queue.claim("w2", lease_seconds=10.0, now=1e9)
        reclaimed = queue.reclaim_expired(now=200.0)
        assert [job.job_id for job in reclaimed] == [overdue.job_id]
        state = queue.load()
        assert state.jobs[overdue.job_id].status == "pending"
        running = [job_id for job_id in ids if state.jobs[job_id].status == "running"]
        assert len(running) == 1

    def test_shutdown_event_reaches_every_reader(self, tmp_path):
        queue = _queue(tmp_path)
        assert not queue.load().shutdown
        queue.request_shutdown()
        assert JobQueue(queue.root).load().shutdown


class TestLogRobustness:
    def test_torn_final_line_is_tolerated_and_overwritten_by_nothing(
        self, tmp_path
    ):
        queue = _queue(tmp_path)
        queue.enqueue_all(TASK, [(0, 10)])
        with open(queue.log_path, "a") as stream:
            stream.write('{"event": "claim", "job"')  # writer died mid-append
        assert len(queue.load().jobs) == 1  # fold just skips the torn tail
        # The log is append-only: the next event lands after the torn
        # line and the fold keeps working.
        queue.request_shutdown()
        assert queue.load().shutdown

    def test_racing_appenders_terminate_a_torn_tail(self, tmp_path):
        # Two appenders both found the torn tail: each contributed a
        # terminating newline, leaving a blank line the fold skips.
        queue = _queue(tmp_path)
        with open(queue.log_path, "a") as stream:
            stream.write('{"event": "claim", "job"')
        queue.enqueue_all(TASK, [(0, 10)])
        queue.request_shutdown()
        with open(queue.log_path, "a") as stream:
            stream.write("\n")  # the second racer's redundant terminator
        queue.enqueue_all(TASK, [(10, 10)])
        state = queue.load()
        assert state.shutdown
        assert len(state.jobs) == 2

    def test_version_mismatch_raises(self, tmp_path):
        root = tmp_path / "q"
        root.mkdir()
        (root / "queue.jsonl").write_text('{"event": "init", "version": 99}\n')
        with pytest.raises(ValueError, match="version-1"):
            JobQueue(str(root)).load()

    def test_ensure_races_write_exactly_one_header(self, tmp_path):
        queue = _queue(tmp_path)
        JobQueue(queue.root).ensure()  # a second process arriving late
        with open(queue.log_path) as stream:
            lines = stream.read().splitlines()
        assert len(lines) == 1


class TestWorkerLiveness:
    def test_heartbeats_age_out(self, tmp_path):
        queue = _queue(tmp_path)
        queue.heartbeat("w1")
        assert queue.live_workers(stale_seconds=60.0) == ["w1"]
        assert queue.live_workers(stale_seconds=60.0, now=1e12) == []

    def test_staleness_window_is_two_leases(self):
        assert JobQueue.heartbeat_stale_after(30.0) == 60.0


class TestResolveQueueRoot:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_QUEUE_DIR", "/from/env")
        assert resolve_queue_root("/explicit") == "/explicit"

    def test_environment_binds_when_no_argument(self, monkeypatch):
        monkeypatch.setenv("REPRO_QUEUE_DIR", "/from/env")
        assert resolve_queue_root(None) == "/from/env"

    def test_unbound_raises_actionably_and_fatally(self, monkeypatch):
        monkeypatch.delenv("REPRO_QUEUE_DIR", raising=False)
        with pytest.raises(QueueUnavailableError, match="REPRO_QUEUE_DIR"):
            resolve_queue_root(None)
        # A ValueError, so the retry layer classifies it as fatal
        # configuration instead of backing off on it.
        assert issubclass(QueueUnavailableError, ValueError)
