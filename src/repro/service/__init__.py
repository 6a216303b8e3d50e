"""Contract synthesis as a service.

The service package turns the toolchain into a long-running system:
shard evaluation leaves the machine boundary through a filesystem
work queue, finished contracts persist in a key-addressed store, and
a request front-end answers "give me the contract for (core, attacker,
template, budget)" — instantly when the store already holds it, by
scheduling campaign cells on the queue when it does not.

Three cooperating layers:

:mod:`repro.service.queue` / :mod:`repro.service.worker`
    A JSONL-event-sourced job queue (atomic claim → running →
    done/failed state machine with lease timestamps) and the worker
    loop that drains it.  Jobs are budget-free-keyed shard
    descriptors; everything a worker needs is name-addressable
    (registry name + JSON state), per the architecture invariant.
:mod:`repro.service.workqueue`
    The ``workqueue`` :data:`EXECUTOR_REGISTRY` backend: the broker
    side that enqueues shards, reclaims dead leases, and streams
    results back through the normal executor interface — byte-identical
    to the serial executor.
:mod:`repro.service.store` / :mod:`repro.service.service`
    The persistent contract store (keyed like the dataset cache, whose
    prefix derivation serves smaller budgets from larger cached
    datasets) and the :class:`ContractService` request
    API plus the file-based ``serve`` / ``submit`` / ``status``
    front-end.
"""

from repro.service.queue import JobQueue, JobRecord, QueueUnavailableError
from repro.service.service import (
    ContractRequest,
    ContractServer,
    ContractService,
    ServiceTicket,
)
from repro.service.store import ContractStore
from repro.trace import Tracer
from repro.service.worker import JobWorker
from repro.service.workqueue import WorkQueueExecutor

__all__ = [
    "ContractRequest",
    "ContractServer",
    "ContractService",
    "ContractStore",
    "JobQueue",
    "JobRecord",
    "JobWorker",
    "QueueUnavailableError",
    "ServiceTicket",
    "Tracer",
    "WorkQueueExecutor",
]
