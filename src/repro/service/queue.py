"""The filesystem-backed job queue: an event-sourced shard ledger.

One directory is the whole queue — no daemon, no sockets, no third
party.  Brokers and workers coordinate through three kinds of files::

    <root>/queue.jsonl          the event log (the source of truth)
    <root>/results/<job>.json   one result file per finished job
    <root>/workers/<id>.json    worker heartbeats (atomic replace)

``queue.jsonl`` follows :class:`repro.checkpoint.JsonlCheckpoint`
semantics adapted to many concurrent writers: every event is one JSONL
line appended through a single atomic ``O_APPEND`` write (fsynced —
the queue is durable by default), torn fragments from killed writers
are terminated by the next append and skipped by the fold (safe: every
event is confirmed or reissued by its writer), and the log is never
rewritten (a rewrite could drop another process's concurrent append).
Queue state is a pure fold over the event stream, so every process
sees the same state machine::

    enqueue ──▶ pending ──claim──▶ running ──done────▶ done
                   ▲                  │ └──failed───▶ failed
                   └───── requeue ────┘ (lease expired / retryable)

Claims are resolved by *file order*: a worker appends its claim for a
``(job, epoch)`` it observed pending, re-reads the log, and has won
exactly when its claim line is the first for that epoch.  Losing
claims are ignored by the fold, so two workers can race without locks
and at most one executes the job per epoch.  Requeues bump the epoch,
which invalidates any stale lease still executing — and because test
cases are generated per test id, a stale worker finishing anyway is
harmless: it writes the byte-identical result file.

Jobs are **budget-free keyed**: the job id digests the task payload
(registry names + JSON state) and the shard descriptor, so re-runs and
broker restarts re-enqueue the same ids and finished work is reused
through the ``done`` fold state plus the result file.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.checkpoint import append_jsonl_line
from repro.evaluation.backends.base import EvaluationTask, Shard
from repro.evaluation.results import TestCaseResult
from repro.pipeline.config import (  # noqa: F401 - task_from_payload re-exported
    job_id_for,
    task_from_payload,
    task_to_payload,
)
from repro.trace.tracer import read_trace

QUEUE_VERSION = 1

#: A worker whose newest heartbeat is older than this many lease
#: periods is presumed dead for liveness checks.
_HEARTBEAT_STALE_LEASES = 2.0


class QueueUnavailableError(ValueError):
    """The workqueue backend cannot reach a usable queue.

    A :class:`ValueError` so the resilience layer's retry
    classification treats it as fatal configuration, not a transient
    worth backing off on.
    """


@dataclass
class JobRecord:
    """The folded state of one job after replaying the event log."""

    job_id: str
    task: dict
    shard: Shard
    status: str = "pending"  # pending | running | done | failed
    #: Bumped by every requeue; claims and failures must name the
    #: epoch they acted on, so stale workers cannot corrupt the fold.
    epoch: int = 0
    worker: Optional[str] = None
    lease_until: Optional[float] = None
    #: Applied (winning) claims across all epochs — the retry budget
    #: the broker charges against its :class:`RetryPolicy`.
    attempts: int = 0
    error: str = ""
    fatal: bool = False


@dataclass
class QueueState:
    """Everything a fold over ``queue.jsonl`` produces."""

    jobs: Dict[str, JobRecord] = field(default_factory=dict)
    shutdown: bool = False

    def pending(self) -> List[JobRecord]:
        return [job for job in self.jobs.values() if job.status == "pending"]

    def running(self) -> List[JobRecord]:
        return [job for job in self.jobs.values() if job.status == "running"]

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for job in self.jobs.values():
            counts[job.status] = counts.get(job.status, 0) + 1
        return counts


class JobQueue:
    """Broker/worker handle on one queue directory.

    Cheap to construct; every operation re-reads the event log, so
    handles in different processes never hold stale authority.  All
    mutations are appends (or whole-file atomic replaces), never
    in-place edits.
    """

    def __init__(self, root: str, durable: bool = True):
        self.root = root
        self.log_path = os.path.join(root, "queue.jsonl")
        self.results_dir = os.path.join(root, "results")
        self.workers_dir = os.path.join(root, "workers")
        self.durable = durable

    # -- layout --------------------------------------------------------

    def ensure(self) -> "JobQueue":
        """Create the queue layout (idempotent, multi-process safe)."""
        os.makedirs(self.results_dir, exist_ok=True)
        os.makedirs(self.workers_dir, exist_ok=True)
        try:
            # O_EXCL makes exactly one creator write the header even
            # when a broker and several workers race on a fresh dir.
            descriptor = os.open(
                self.log_path, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o644
            )
        except FileExistsError:
            return self
        try:
            header = {"event": "init", "version": QUEUE_VERSION}
            os.write(descriptor, (json.dumps(header) + "\n").encode("utf-8"))
            if self.durable:
                os.fsync(descriptor)
        finally:
            os.close(descriptor)
        return self

    @property
    def exists(self) -> bool:
        return os.path.exists(self.log_path)

    # -- event log -----------------------------------------------------

    def _emit(self, event: dict) -> None:
        append_jsonl_line(self.log_path, event, durable=self.durable)

    def _events(self) -> List[dict]:
        # Blank lines and torn fragments are skipped (a missing log has
        # no events).  Skipping is safe because every event is confirmed
        # or reissued: claims are verified by re-reading the fold,
        # expired leases are requeued, a lost ``done`` re-executes
        # idempotently, and a lost ``enqueue`` is re-emitted by the next
        # broker pass.
        events = read_trace(self.log_path)
        if events and events[0].get("event") == "init":
            if events[0].get("version") != QUEUE_VERSION:
                raise ValueError(
                    "%s is not a version-%d queue log"
                    % (self.log_path, QUEUE_VERSION)
                )
        return events

    def load(self) -> QueueState:
        """Fold the event log into the current queue state."""
        state = QueueState()
        for event in self._events():
            self._apply(state, event)
        return state

    @staticmethod
    def _apply(state: QueueState, event: dict) -> None:
        kind = event.get("event")
        if kind == "shutdown":
            state.shutdown = True
            return
        if kind in (None, "init"):
            return
        job_id = event.get("job")
        if kind == "enqueue":
            if job_id not in state.jobs:
                state.jobs[job_id] = JobRecord(
                    job_id=job_id,
                    task=event.get("task", {}),
                    shard=tuple(event.get("shard", (0, 0))),
                )
            return
        job = state.jobs.get(job_id)
        if job is None:
            return
        if kind == "claim":
            # First claim per (job, epoch) in file order wins; the
            # rest fall through here as no-ops and their workers
            # detect the loss when they re-read and confirm.
            if job.status == "pending" and event.get("epoch") == job.epoch:
                job.status = "running"
                job.worker = event.get("worker")
                job.lease_until = event.get("lease")
                job.attempts += 1
        elif kind == "done":
            # Terminal and idempotent: per-test-id generation makes
            # duplicate executions byte-identical, so whichever done
            # event lands first settles the job.
            job.status = "done"
            job.lease_until = None
        elif kind == "failed":
            if job.status == "running" and event.get("epoch") == job.epoch:
                job.status = "failed"
                job.error = event.get("error", "")
                job.fatal = bool(event.get("fatal", False))
                job.lease_until = None
        elif kind == "requeue":
            if job.status in ("running", "failed") and event.get("epoch") == job.epoch:
                job.status = "pending"
                job.epoch += 1
                job.worker = None
                job.lease_until = None
                job.error = ""

    # -- broker side ---------------------------------------------------

    def enqueue(self, task: EvaluationTask, shard: Shard) -> str:
        """Enqueue one shard job; already-known ids are not re-added."""
        job_id = job_id_for(task, shard)
        state = self.load()
        if job_id not in state.jobs:
            self._emit(
                {
                    "event": "enqueue",
                    "job": job_id,
                    "task": task_to_payload(task),
                    "shard": list(shard),
                }
            )
        return job_id

    def enqueue_all(
        self, task: EvaluationTask, shards: Sequence[Shard]
    ) -> List[str]:
        """Enqueue a shard plan with one state read (not one per job)."""
        state = self.load()
        ids = []
        for shard in shards:
            job_id = job_id_for(task, shard)
            if job_id not in state.jobs:
                self._emit(
                    {
                        "event": "enqueue",
                        "job": job_id,
                        "task": task_to_payload(task),
                        "shard": list(shard),
                    }
                )
                state.jobs[job_id] = JobRecord(
                    job_id=job_id, task=task_to_payload(task), shard=tuple(shard)
                )
            ids.append(job_id)
        return ids

    def requeue(self, job: JobRecord) -> None:
        """Send a running/failed job back to pending (epoch bump)."""
        self._emit({"event": "requeue", "job": job.job_id, "epoch": job.epoch})

    def request_shutdown(self) -> None:
        """Ask every worker polling this queue to exit."""
        self._emit({"event": "shutdown"})

    def reclaim_expired(self, now: Optional[float] = None) -> List[JobRecord]:
        """Requeue every running job whose lease has expired.

        Returns the reclaimed records (pre-bump) so the caller can
        charge their attempts against its retry policy.
        """
        now = time.time() if now is None else now
        reclaimed = []
        for job in self.load().running():
            if job.lease_until is not None and job.lease_until < now:
                self.requeue(job)
                reclaimed.append(job)
        return reclaimed

    # -- worker side ---------------------------------------------------

    def claim(
        self, worker_id: str, lease_seconds: float, now: Optional[float] = None
    ) -> Optional[JobRecord]:
        """Claim the first pending job, or ``None`` if there is none.

        Optimistic protocol: append a claim naming the observed epoch,
        re-read, and return the job only if our claim line won the
        fold.  Losing costs one wasted append; it never costs
        correctness.
        """
        now = time.time() if now is None else now
        state = self.load()
        for job in state.pending():
            lease_until = now + lease_seconds
            self._emit(
                {
                    "event": "claim",
                    "job": job.job_id,
                    "epoch": job.epoch,
                    "worker": worker_id,
                    "lease": lease_until,
                }
            )
            confirmed = self.load().jobs.get(job.job_id)
            if (
                confirmed is not None
                and confirmed.status == "running"
                and confirmed.worker == worker_id
                and confirmed.epoch == job.epoch
            ):
                return confirmed
            # Lost the race for this job; try the next pending one.
        return None

    def complete(self, job: JobRecord, results: Sequence[TestCaseResult]) -> None:
        """Persist the result file, then mark the job done.

        Order matters: the result file must be durably in place before
        the ``done`` event makes it authoritative.
        """
        self.write_result(job.job_id, results)
        self._emit({"event": "done", "job": job.job_id, "epoch": job.epoch})

    def fail(self, job: JobRecord, error: str, fatal: bool = False) -> None:
        self._emit(
            {
                "event": "failed",
                "job": job.job_id,
                "epoch": job.epoch,
                "error": error,
                "fatal": fatal,
            }
        )

    # -- results -------------------------------------------------------

    def result_path(self, job_id: str) -> str:
        return os.path.join(self.results_dir, job_id + ".json")

    def write_result(self, job_id: str, results: Sequence[TestCaseResult]) -> None:
        payload = {"job": job_id, "rows": [result.to_row() for result in results]}
        tmp_path = self.result_path(job_id) + ".tmp.%d" % os.getpid()
        with open(tmp_path, "w") as stream:
            json.dump(payload, stream)
            if self.durable:
                stream.flush()
                os.fsync(stream.fileno())
        os.replace(tmp_path, self.result_path(job_id))

    def read_result(self, job_id: str) -> List[TestCaseResult]:
        with open(self.result_path(job_id)) as stream:
            payload = json.load(stream)
        return [TestCaseResult.from_row(row) for row in payload["rows"]]

    def has_result(self, job_id: str) -> bool:
        return os.path.exists(self.result_path(job_id))

    # -- worker liveness -----------------------------------------------

    def heartbeat(self, worker_id: str) -> None:
        """Atomically refresh this worker's liveness file."""
        path = os.path.join(self.workers_dir, worker_id + ".json")
        tmp_path = path + ".tmp"
        with open(tmp_path, "w") as stream:
            json.dump({"worker": worker_id, "pid": os.getpid(), "ts": time.time()}, stream)
        os.replace(tmp_path, path)

    def live_workers(
        self, stale_seconds: float, now: Optional[float] = None
    ) -> List[str]:
        """Worker ids whose heartbeat is newer than ``stale_seconds``."""
        now = time.time() if now is None else now
        live = []
        try:
            names = os.listdir(self.workers_dir)
        except FileNotFoundError:
            return []
        for name in sorted(names):
            if not name.endswith(".json"):
                continue
            try:
                with open(os.path.join(self.workers_dir, name)) as stream:
                    record = json.load(stream)
            except (OSError, ValueError):
                continue
            if now - record.get("ts", 0.0) <= stale_seconds:
                live.append(record.get("worker", name[: -len(".json")]))
        return live

    @staticmethod
    def heartbeat_stale_after(lease_seconds: float) -> float:
        return lease_seconds * _HEARTBEAT_STALE_LEASES

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "JobQueue(%r)" % self.root


def resolve_queue_root(queue_dir: Optional[str]) -> str:
    """The queue directory from an explicit argument or the
    ``REPRO_QUEUE_DIR`` environment variable, or raise actionably."""
    root = queue_dir or os.environ.get("REPRO_QUEUE_DIR")
    if not root:
        raise QueueUnavailableError(
            "the workqueue executor needs a queue directory: start a broker "
            "with `repro-synthesize serve`, pass --queue-dir, or set "
            "REPRO_QUEUE_DIR"
        )
    return root
