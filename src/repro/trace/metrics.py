"""Fold a trace file into per-phase / per-cell / per-round summaries.

:func:`fold` aggregates a record stream **incrementally**: span-group
summaries, per-cell and per-round detail, a bounded slowest-spans
heap, and the run's metric snapshots
(:class:`repro.metrics.fold.MetricsAggregate`) are all maintained
record by record, so folding a million-span service trace holds only
the aggregates resident.  Records are read through the tolerant
:func:`~repro.trace.tracer.iter_trace` and classified by
:func:`~repro.trace.tracer.record_shape`; unknown shapes count as
events.  ``repro report`` (:mod:`repro.metrics.report`) renders the
result; the live ``watch`` view keeps its own state
(:mod:`repro.trace.watch`) over the same reader and rule.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.metrics.fold import MetricsAggregate
from repro.trace.tracer import iter_trace, record_shape

#: How many slowest spans the fold keeps, regardless of trace size.
_SLOWEST_KEPT = 64


def span_group(record: dict) -> str:
    """The summary group of one span record: pipeline phases split by
    phase name, everything else by its ``kind``."""
    kind = record.get("kind", "?")
    if kind == "phase" and record.get("phase"):
        return "phase:%s" % record["phase"]
    return str(kind)


@dataclass
class SpanGroupSummary:
    """Aggregate of one span group (``phase:evaluate``, ``shard``...)."""

    group: str
    count: int = 0
    total_seconds: float = 0.0
    max_seconds: float = 0.0
    failed: int = 0

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0

    def ingest(self, record: dict) -> None:
        seconds = float(record.get("seconds", 0.0))
        self.count += 1
        self.total_seconds += seconds
        self.max_seconds = max(self.max_seconds, seconds)
        if record.get("ok") is False:
            self.failed += 1


@dataclass
class TraceMetrics:
    """Everything :func:`fold` derived from one record stream."""

    record_count: int = 0
    span_count: int = 0
    event_count: int = 0
    #: ``metric`` registry snapshots folded into :attr:`metrics`.
    metric_count: int = 0
    summaries: Dict[str, SpanGroupSummary] = field(default_factory=dict)
    #: Counters/gauges/histograms merged across processes.
    metrics: MetricsAggregate = field(default_factory=MetricsAggregate)
    _cells: List[dict] = field(default_factory=list)
    _rounds: List[dict] = field(default_factory=list)
    _slowest: List[Tuple[float, int, dict]] = field(default_factory=list)

    def summary(self, group: str) -> Optional[SpanGroupSummary]:
        return self.summaries.get(group)

    def slowest(self, limit: int = 10) -> List[dict]:
        """The ``limit`` slowest completed spans, slowest first (from
        the fold's bounded top-``64`` heap)."""
        ranked = sorted(self._slowest, key=lambda entry: (-entry[0], entry[1]))
        return [record for _, _, record in ranked[:limit]]

    def cells(self) -> List[dict]:
        return list(self._cells)

    def rounds(self) -> List[dict]:
        return list(self._rounds)

    # -- incremental ingestion -----------------------------------------

    def ingest(self, record: dict) -> None:
        """Fold one record into the aggregates."""
        self.record_count += 1
        shape = record_shape(record)
        if shape == "metric":
            self.metric_count += 1
            self.metrics.ingest(record)
        elif shape == "event":
            self.event_count += 1
        elif shape == "end":
            self.span_count += 1
            group = span_group(record)
            summary = self.summaries.get(group)
            if summary is None:
                summary = self.summaries[group] = SpanGroupSummary(group)
            summary.ingest(record)
            kind = record.get("kind")
            if kind == "cell":
                self._cells.append(record)
            elif kind == "round":
                self._rounds.append(record)
            entry = (float(record.get("seconds", 0.0)), self.span_count, record)
            if len(self._slowest) < _SLOWEST_KEPT:
                heapq.heappush(self._slowest, entry)
            else:
                heapq.heappushpop(self._slowest, entry)
        # begin records (start_ts, no seconds) count as neither: their
        # span lands via the matching end record.


def fold(records: Iterable[dict]) -> TraceMetrics:
    """Aggregate a record stream into :class:`TraceMetrics` in a
    single streaming pass that keeps no raw record list."""
    metrics = TraceMetrics()
    for record in records:
        metrics.ingest(record)
    return metrics


def fold_file(path: str) -> TraceMetrics:
    """:func:`fold` over :func:`~repro.trace.tracer.iter_trace` — the
    file is never materialized as a whole."""
    return fold(iter_trace(path))
