"""The worker loop: claim shards, evaluate, stream results back.

A :class:`JobWorker` is one independent process (or thread, for
embedded use) polling a :class:`~repro.service.queue.JobQueue`.  Per
iteration it heartbeats, honors a shutdown event, claims the first
pending job, rebuilds the evaluation stack from the job's registry
names + JSON state (cached per task payload — rebuilding the
multi-hundred-atom template per shard would dominate), and funnels the
shard through the same :func:`_evaluate_shard` seam as every pool
backend — so fault injection, :class:`ShardExecutionError` wrapping,
and byte-identity hold across the machine boundary for free.

Failures follow the resilience vocabulary: a retryable error appends a
``failed`` event (the broker requeues under its
:class:`~repro.resilience.RetryPolicy`), a fatal one marks the job
fatal, and either lands a structured
:class:`~repro.resilience.FailureRecord` in the shared
:class:`~repro.resilience.FailureLog` when one is configured — which
is why that log must survive many processes appending at once.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, Optional

from repro.evaluation.backends.base import ShardEvaluator
from repro.evaluation.backends.executors import _evaluate_shard
from repro.metrics.registry import Metrics
from repro.resilience.errors import ShardExecutionError
from repro.resilience.injection import set_attempts
from repro.pipeline.config import task_from_payload
from repro.service.queue import JobQueue, JobRecord
from repro.trace import Tracer

#: Default trace-heartbeat throttle (seconds); ``service worker
#: --heartbeat-interval`` overrides it.
DEFAULT_HEARTBEAT_INTERVAL = 2.0


class JobWorker:
    """One queue-draining worker."""

    def __init__(
        self,
        queue: JobQueue,
        worker_id: Optional[str] = None,
        poll_seconds: float = 0.05,
        lease_seconds: float = 30.0,
        max_jobs: Optional[int] = None,
        idle_timeout: Optional[float] = None,
        failure_log_path: Optional[str] = None,
        tracer: Optional[Tracer] = None,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
    ):
        self.queue = queue
        self.worker_id = worker_id or "worker-%d" % os.getpid()
        self.poll_seconds = poll_seconds
        self.lease_seconds = lease_seconds
        #: Trace-heartbeat throttle: how often the ``heartbeat`` event
        #: and the utilization/queue-depth gauges are sampled.
        self.heartbeat_interval = heartbeat_interval
        #: Exit after this many completed/failed jobs (None = forever).
        self.max_jobs = max_jobs
        #: Exit after this long without claiming anything (None = never);
        #: the embedded/CI escape hatch so workers cannot run away.
        self.idle_timeout = idle_timeout
        self.failure_log_path = failure_log_path
        self.tracer = (tracer or Tracer(None)).child(self.worker_id)
        #: ShardEvaluator cache keyed by the canonical task payload.
        self._evaluators: Dict[str, ShardEvaluator] = {}
        self.completed = 0
        self.failed = 0
        #: Wall seconds spent inside job execution (utilization input).
        self.busy_seconds = 0.0
        #: Cooperative stop flag for embedded (in-thread) workers.
        self.stopped = False
        #: A worker-private registry (not the process-global one):
        #: embedded workers share a process, and per-worker gauges must
        #: not clobber each other — ``(pid, source)`` disambiguates the
        #: snapshots because the child tracer carries the worker id.
        self.metrics = Metrics(self.tracer)

    def stop(self) -> None:
        """Ask the loop to exit after the current job (thread-safe)."""
        self.stopped = True

    # -- loop ----------------------------------------------------------

    def run(self) -> int:
        """Drain the queue until shutdown / max_jobs / idle timeout.

        Returns the number of jobs completed successfully.
        """
        self.queue.ensure()
        self.tracer.event("worker-start", worker=self.worker_id)
        # Standalone worker processes adopt this worker's registry as
        # the process-global one, so the evaluation seams (batch-engine
        # lanes, solver, cache) record under the worker's source; an
        # embedded worker leaves the broker's registry installed and
        # keeps only its per-worker gauges private.
        from repro.metrics.registry import current_metrics, install_metrics

        previous_metrics = None
        if self.metrics.enabled and not current_metrics().enabled:
            previous_metrics = install_metrics(self.metrics)
        started = time.time()
        last_progress = started
        #: Trace heartbeats are throttled well below the queue-level
        #: heartbeat rate: the queue one feeds lease accounting (every
        #: iteration), the trace one feeds the ``watch`` liveness view
        #: and would otherwise dominate the file at tight poll loops.
        last_trace_beat = 0.0
        try:
            while not self.stopped:
                self.queue.heartbeat(self.worker_id)
                state = self.queue.load()
                if (
                    self.tracer.enabled
                    and time.time() - last_trace_beat >= self.heartbeat_interval
                ):
                    last_trace_beat = time.time()
                    self.tracer.event(
                        "heartbeat",
                        worker=self.worker_id,
                        completed=self.completed,
                        failed=self.failed,
                    )
                    self._sample_gauges(started, len(state.pending()))
                    self.metrics.flush()
                if state.shutdown:
                    self.tracer.event("worker-shutdown", worker=self.worker_id)
                    break
                job = self.queue.claim(self.worker_id, self.lease_seconds)
                if job is None:
                    if (
                        self.idle_timeout is not None
                        and time.time() - last_progress > self.idle_timeout
                    ):
                        self.tracer.event("worker-idle-exit", worker=self.worker_id)
                        break
                    time.sleep(self.poll_seconds)
                    continue
                last_progress = time.time()
                self.tracer.event(
                    "claim", job=job.job_id, epoch=job.epoch, shard=list(job.shard)
                )
                self._execute(job)
                if self.max_jobs is not None and (
                    self.completed + self.failed
                ) >= self.max_jobs:
                    self.tracer.event("worker-job-limit", worker=self.worker_id)
                    break
        finally:
            self._sample_gauges(started)
            self.metrics.flush(final=True)
            if previous_metrics is not None:
                install_metrics(previous_metrics)
            self.tracer.event(
                "worker-exit",
                worker=self.worker_id,
                completed=self.completed,
                failed=self.failed,
            )
        return self.completed

    def _sample_gauges(
        self, started: float, queue_depth: Optional[int] = None
    ) -> None:
        """Refresh the per-worker gauges (no-ops when untraced)."""
        self.metrics.gauge("worker.jobs.completed").set(self.completed)
        self.metrics.gauge("worker.jobs.failed").set(self.failed)
        elapsed = time.time() - started
        if elapsed > 0:
            self.metrics.gauge("worker.utilization").set(
                round(self.busy_seconds / elapsed, 6)
            )
        if queue_depth is not None:
            self.metrics.gauge("queue.depth").set(queue_depth)

    # -- execution -----------------------------------------------------

    def _evaluator(self, task_payload: dict) -> ShardEvaluator:
        key = json.dumps(task_payload, sort_keys=True)
        evaluator = self._evaluators.get(key)
        if evaluator is None:
            evaluator = ShardEvaluator.from_task(task_from_payload(task_payload))
            self._evaluators[key] = evaluator
        return evaluator

    def _execute(self, job: JobRecord) -> None:
        shard = tuple(job.shard)
        # The job's winning-claim count *is* the attempt number; publish
        # it so attempt-dependent fault plans ("fail once, then recover")
        # behave identically in-process and across the queue boundary.
        set_attempts({shard: job.attempts})
        job_started = time.monotonic()
        try:
            with self.tracer.span("execute", job=job.job_id, shard=list(shard)):
                evaluator = self._evaluator(job.task)
                _, results = _evaluate_shard(evaluator, shard)
        except ShardExecutionError as error:
            self.busy_seconds += time.monotonic() - job_started
            self.queue.fail(job, error=error.cause, fatal=error.fatal)
            self.tracer.event(
                "failed", job=job.job_id, error=error.cause, fatal=error.fatal
            )
            self._record_failure(job, error)
            self.failed += 1
            return
        self.busy_seconds += time.monotonic() - job_started
        self.queue.complete(job, results)
        self.tracer.event("done", job=job.job_id, rows=len(results))
        self.completed += 1

    def _record_failure(self, job: JobRecord, error: ShardExecutionError) -> None:
        if self.failure_log_path is None:
            return
        from repro.resilience import FailureLog, FailureRecord

        log = FailureLog(
            self.failure_log_path, key={"scope": "service"}, durable=True
        )
        log.append_record(
            FailureRecord(
                kind="shard",
                unit={
                    "start_id": job.shard[0],
                    "count": job.shard[1],
                    "job": job.job_id,
                    "worker": self.worker_id,
                },
                error=error.cause,
                attempts=job.attempts,
            )
        )
