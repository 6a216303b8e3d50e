"""The ``workqueue`` executor backend: evaluation leaves the machine.

:class:`WorkQueueExecutor` is the broker side of the distributed
service, behind the exact same :class:`EvaluationExecutor` interface
as the in-process pools — so ``SynthesisPipeline.executor("workqueue")``
and ``CampaignRunner`` distribute across independent worker processes
with no other change, and every existing guarantee (shard-manifest
resume, retry classification, byte-identity with the serial backend)
carries over.

``run(task, shards)``:

1. enqueue every not-yet-known shard job (jobs already ``done`` from a
   previous run are *not* re-enqueued — their result files are
   streamed back immediately, the distributed analogue of shard-manifest
   resume);
2. poll the queue, yielding ``(shard, results)`` as ``done`` events land;
3. reclaim expired leases (a SIGKILLed worker's job is requeued and
   picked up by a survivor) and requeue retryable failures, both
   charged against a :class:`RetryPolicy` — exhaustion or a fatal
   failure raises :class:`ShardExecutionError` naming the shard;
4. watch worker heartbeats: outstanding work with no live worker for
   longer than ``wait_for_workers`` raises an actionable
   :class:`QueueUnavailableError` instead of hanging forever.

``embedded_workers=N`` runs N in-thread :class:`JobWorker` loops for
self-contained tests and benchmarks (the cores are pure Python, so
embedded threads measure queue overhead, not parallel speedup).
"""

from __future__ import annotations

import os
import threading
import time
from typing import Iterator, Optional, Sequence, Set

from repro.evaluation.backends.base import (
    EvaluationExecutor,
    EvaluationTask,
    Shard,
    ShardResults,
)
from repro.metrics.registry import current_metrics
from repro.resilience.errors import ShardExecutionError
from repro.resilience.retry import RetryPolicy
from repro.service.queue import (
    JobQueue,
    QueueUnavailableError,
    job_id_for,
    resolve_queue_root,
)
from repro.trace import Tracer
from repro.service.worker import JobWorker


class WorkQueueExecutor(EvaluationExecutor):
    """Distribute shards to independent workers via a filesystem queue."""

    name = "workqueue"
    external = True

    def __init__(
        self,
        processes: Optional[int] = None,
        queue_dir: Optional[str] = None,
        lease_seconds: float = 30.0,
        poll_seconds: float = 0.05,
        wait_for_workers: float = 30.0,
        retry: Optional[RetryPolicy] = None,
        embedded_workers: int = 0,
        durable: bool = True,
        tracer: Optional[Tracer] = None,
    ):
        super().__init__(processes)
        self.queue_dir = queue_dir
        self.lease_seconds = lease_seconds
        self.poll_seconds = poll_seconds
        #: How long outstanding work may sit with zero live workers
        #: before the broker gives up with an actionable error.
        self.wait_for_workers = wait_for_workers
        self.retry = retry or RetryPolicy()
        #: In-thread workers for self-contained runs (tests, benches).
        self.embedded_workers = embedded_workers
        self.durable = durable
        self.tracer = (tracer or Tracer(None)).child("broker")
        #: Jobs enqueued by the most recent ``run`` (observability:
        #: a fully store/queue-served run enqueues zero), and the
        #: cumulative count across runs (service tickets report the
        #: per-request delta).
        self.last_enqueued = 0
        self.total_enqueued = 0

    # -- executor interface --------------------------------------------

    def run(
        self, task: EvaluationTask, shards: Sequence[Shard]
    ) -> Iterator[ShardResults]:
        queue = JobQueue(resolve_queue_root(self.queue_dir), durable=self.durable)
        queue.ensure()
        embedded = self._start_embedded(queue)
        try:
            yield from self._run(queue, task, shards)
        finally:
            for worker, thread in embedded:
                worker.stop()
            for worker, thread in embedded:
                thread.join(timeout=max(5.0, self.lease_seconds))

    def _run(
        self, queue: JobQueue, task: EvaluationTask, shards: Sequence[Shard]
    ) -> Iterator[ShardResults]:
        before = set(queue.load().jobs)
        job_ids = queue.enqueue_all(task, shards)
        shard_by_job = {job_id_for(task, shard): shard for shard in shards}
        self.last_enqueued = len(set(job_ids) - before)
        self.total_enqueued += self.last_enqueued
        self.tracer.event(
            "enqueue",
            jobs=len(job_ids),
            new=self.last_enqueued,
            reused=len(job_ids) - self.last_enqueued,
        )
        metrics = current_metrics()
        metrics.counter("queue.jobs.enqueued").inc(self.last_enqueued)
        metrics.counter("queue.jobs.reused").inc(
            len(job_ids) - self.last_enqueued
        )
        depth_gauge = metrics.gauge("queue.depth")
        running_gauge = metrics.gauge("queue.running")
        outstanding: Set[str] = set(job_ids)
        started = time.time()
        worker_seen_at: Optional[float] = None
        while outstanding:
            state = queue.load()
            counts = state.counts()
            depth_gauge.set(counts.get("pending", 0))
            running_gauge.set(counts.get("running", 0))
            metrics.maybe_flush()
            now = time.time()
            progressed = False
            for job_id in sorted(outstanding):
                job = state.jobs.get(job_id)
                if job is None:
                    continue
                if job.status == "done" and queue.has_result(job_id):
                    results = queue.read_result(job_id)
                    outstanding.discard(job_id)
                    progressed = True
                    yield shard_by_job[job_id], results
                elif job.status == "failed":
                    if job.fatal:
                        raise ShardExecutionError(
                            shard_by_job[job_id], cause=job.error, fatal=True
                        )
                    if job.attempts >= self.retry.max_attempts:
                        raise ShardExecutionError(
                            shard_by_job[job_id],
                            cause="%s (after %d attempts)"
                            % (job.error, job.attempts),
                        )
                    queue.requeue(job)
                    self.tracer.event(
                        "requeue", job=job_id, reason="failed", error=job.error
                    )
                    progressed = True
                elif (
                    job.status == "running"
                    and job.lease_until is not None
                    and job.lease_until < now
                ):
                    # The lease expired: the worker died (or hung past
                    # its lease).  Reclaim by requeueing under a fresh
                    # epoch so a live worker picks the shard up.
                    if job.attempts >= self.retry.max_attempts:
                        raise ShardExecutionError(
                            shard_by_job[job_id],
                            cause="lease expired after %d attempts (worker %s)"
                            % (job.attempts, job.worker),
                        )
                    queue.requeue(job)
                    self.tracer.event(
                        "requeue", job=job_id, reason="lease-expired", worker=job.worker
                    )
                    progressed = True
            if not outstanding:
                break
            live = queue.live_workers(
                queue.heartbeat_stale_after(self.lease_seconds), now=now
            )
            if live:
                worker_seen_at = now
            else:
                waited = now - (worker_seen_at or started)
                if waited > self.wait_for_workers:
                    raise QueueUnavailableError(
                        "%d job(s) outstanding on %s but no live worker for "
                        "%.0fs: start workers with `repro-synthesize service "
                        "worker --queue-dir %s` (or use --embedded-workers)"
                        % (len(outstanding), queue.root, waited, queue.root)
                    )
            if not progressed:
                time.sleep(self.poll_seconds)

    # -- embedded workers ----------------------------------------------

    def _start_embedded(self, queue: JobQueue):
        embedded = []
        for index in range(self.embedded_workers):
            worker = JobWorker(
                queue,
                worker_id="embedded-%d-%d" % (os.getpid(), index),
                poll_seconds=self.poll_seconds,
                lease_seconds=self.lease_seconds,
                tracer=self.tracer,
            )
            thread = threading.Thread(
                target=worker.run, name="workqueue-embedded-%d" % index, daemon=True
            )
            thread.start()
            embedded.append((worker, thread))
        return embedded
