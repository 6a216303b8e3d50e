"""Structured failure records, the sink they all go through, and the
quarantine manifest.

Every failure of a shard, adaptive round or campaign cell becomes a
:class:`FailureRecord` handed to the run's :class:`FailureSink`, which
counts it (``resilience.*``), traces it (a ``failure`` event), appends
it to a :class:`FailureLog` when it is durable and a quarantine path
is configured, and passes it to the caller's callback — the way
records reach ``PipelineResult.failures`` and
``CampaignResult.failures``.  The log is the same key-bound,
torn-line-recovering JSONL checkpoint as the shard and cell manifests.

Record kinds:

``"shard"`` / ``"cell"`` / ``"round"``
    The unit's last attempt failed (durable).  Shards and cells are
    quarantined and the run goes on; rounds are sequential, so an
    exhausted round is recorded *and* still raises.
``"retry"`` / ``"pool"``
    A transient failure that was retried.
``"downgrade"``
    The executor fallback chain fired, pool backend → serial (durable).

An error that is not retried propagates at once and leaves no record.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.checkpoint import JsonlCheckpoint
from repro.metrics.registry import current_metrics

if TYPE_CHECKING:
    from repro.trace.tracer import Tracer

#: Failure-record kind -> run-metric counter name.
_COUNTERS = {
    "retry": "resilience.retries",
    "shard": "resilience.quarantines",
    "cell": "resilience.quarantines",
    "round": "resilience.quarantines",
    "pool": "resilience.pool_failures",
    "downgrade": "resilience.downgrades",
}


@dataclass(frozen=True)
class FailureRecord:
    """One structured failure: what failed, how, and how many times."""

    #: ``"shard"``, ``"cell"``, ``"round"``, ``"retry"``, ``"pool"``,
    #: or ``"downgrade"``.
    kind: str
    #: Identity of the failed unit (``{"start_id": ..., "count": ...}``
    #: for shards, ``{"cell": label}`` for cells, ...).
    unit: Dict = field(default_factory=dict)
    #: Human-readable error description (``repr`` of the exception).
    error: str = ""
    #: Attempts consumed when the record was emitted.
    attempts: int = 1

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "unit": dict(self.unit),
            "error": self.error,
            "attempts": self.attempts,
        }

    @staticmethod
    def from_dict(data: dict) -> "FailureRecord":
        return FailureRecord(
            kind=data["kind"],
            unit=dict(data.get("unit", {})),
            error=data.get("error", ""),
            attempts=data.get("attempts", 1),
        )


class FailureLog(JsonlCheckpoint):
    """The quarantine manifest: one JSONL line per durable failure."""

    kind = "failure-log"
    description = "failure log"
    subject = "run"
    hint = "pass a different quarantine path"

    def __init__(self, path: str, key: dict, durable: bool = False):
        self.records: List[FailureRecord] = []
        super().__init__(path, key, durable=durable)

    def _accept(self, entry: dict) -> None:
        self.records.append(FailureRecord.from_dict(entry))

    def _entries(self):
        for record in self.records:
            yield record.to_dict()

    def append_record(self, record: FailureRecord) -> None:
        self._append(record.to_dict())
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)


class FailureSink:
    """Where every :class:`FailureRecord` of a run goes.

    With ``log_path`` set, durable records are appended to a
    :class:`FailureLog` bound to ``log_key``.  An existing log is opened
    at once, so a foreign key is refused before any work starts; a
    missing one is created at the first durable record, so a clean run
    leaves no file.  Appends hold a lock: campaign cells run on threads.
    With ``phase`` set, every record's unit carries it as ``"phase"``,
    so a run's verify failures stay apart from its evaluation's.
    """

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        callback: Optional[Callable[[FailureRecord], None]] = None,
        log_path: Optional[str] = None,
        log_key: Optional[dict] = None,
        phase: Optional[str] = None,
    ):
        self.tracer = tracer
        self.callback = callback
        self.log_path = log_path
        self.log_key = log_key
        self.phase = phase
        self._lock = threading.Lock()
        self._log: Optional[FailureLog] = None
        if log_path is not None and os.path.exists(log_path):
            self._log = FailureLog(log_path, log_key)

    def emit(self, record: FailureRecord, durable: bool = False) -> None:
        """Count, trace, log (if ``durable``) and hand on ``record``."""
        if self.phase is not None:
            record = replace(record, unit=dict(record.unit, phase=self.phase))
        current_metrics().counter(_COUNTERS[record.kind]).inc()
        if self.tracer is not None:
            self.tracer.event(
                "failure",
                failure=record.kind,
                unit=record.unit,
                error=record.error,
                attempts=record.attempts,
            )
        if durable and self.log_path is not None:
            with self._lock:
                if self._log is None:
                    self._log = FailureLog(self.log_path, self.log_key)
                self._log.append_record(record)
        if self.callback is not None:
            self.callback(record)
