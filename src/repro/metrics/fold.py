"""Merging ``metric`` snapshot records back into per-run aggregates.

The registry side (:mod:`repro.metrics.registry`) emits cumulative
per-process snapshots; this module is the reader side: feed every
``metric`` record from a trace file into a :class:`MetricsAggregate`
and it reconstructs run totals without any cross-process coordination
having happened at write time —

- **counters** are cumulative per ``(pid, source, name)``, so the last
  snapshot per key is the process's total and the run total is the sum
  across keys;
- **gauges** report the last value seen per key (plus the min/max over
  every snapshot, which is what queue-depth and utilization reporting
  want);
- **histograms** are cumulative like counters: keep the last snapshot
  per key and merge bucket tables across keys, then estimate
  percentiles by walking the shared geometric bucket bounds.

Records are ingested one at a time so folding stays streaming — a
million-span service trace never needs to be resident.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.metrics.registry import _BUCKET_BOUNDS

#: One registry instance's identity in the shared file.
_Key = Tuple[int, str, str]


@dataclass
class GaugeSummary:
    """A gauge folded across snapshots: last level plus its envelope."""

    last: float = 0.0
    min: float = 0.0
    max: float = 0.0
    samples: int = 0

    def ingest(self, value: float) -> None:
        if self.samples == 0 or value < self.min:
            self.min = value
        if self.samples == 0 or value > self.max:
            self.max = value
        self.last = value
        self.samples += 1


@dataclass
class HistogramSummary:
    """Histogram snapshots merged across processes."""

    count: int = 0
    total: float = 0.0
    min: float = 0.0
    max: float = 0.0
    buckets: Dict[int, int] = field(default_factory=dict)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def merge(self, snapshot: dict) -> None:
        count = int(snapshot.get("count", 0))
        if not count:
            return
        low = float(snapshot.get("min", 0.0))
        high = float(snapshot.get("max", 0.0))
        if self.count == 0 or low < self.min:
            self.min = low
        if self.count == 0 or high > self.max:
            self.max = high
        self.count += count
        self.total += float(snapshot.get("total", 0.0))
        for index, bucket_count in (snapshot.get("buckets") or {}).items():
            index = int(index)
            self.buckets[index] = self.buckets.get(index, 0) + int(bucket_count)

    def percentile(self, q: float) -> float:
        """The q-quantile estimated from the bucket table (exact to one
        geometric bucket width, clamped into ``[min, max]``)."""
        if not self.count:
            return 0.0
        target = q * self.count
        cumulative = 0
        for index in sorted(self.buckets):
            cumulative += self.buckets[index]
            if cumulative >= target:
                if index < len(_BUCKET_BOUNDS):
                    bound = _BUCKET_BOUNDS[index]
                else:
                    bound = self.max
                return min(max(bound, self.min), self.max)
        return self.max


@dataclass
class MetricsAggregate:
    """Every metric snapshot in a trace, folded to run-level views."""

    snapshots: int = 0
    _counters: Dict[_Key, float] = field(default_factory=dict)
    _gauges: Dict[str, GaugeSummary] = field(default_factory=dict)
    _histograms: Dict[_Key, dict] = field(default_factory=dict)

    def ingest(self, record: dict) -> None:
        """Fold one ``metric`` record (later snapshots from the same
        process replace earlier ones — they are cumulative)."""
        pid = record.get("pid", 0)
        source = record.get("source", "")
        self.snapshots += 1
        for name, value in (record.get("counters") or {}).items():
            self._counters[(pid, source, name)] = value
        for name, value in (record.get("gauges") or {}).items():
            summary = self._gauges.get(name)
            if summary is None:
                summary = self._gauges[name] = GaugeSummary()
            summary.ingest(value)
        for name, snapshot in (record.get("histograms") or {}).items():
            self._histograms[(pid, source, name)] = snapshot

    def counters(self) -> Dict[str, float]:
        """Run totals: each process's last cumulative value, summed."""
        totals: Dict[str, float] = {}
        for (_, _, name), value in self._counters.items():
            totals[name] = totals.get(name, 0) + value
        return totals

    def gauges(self) -> Dict[str, GaugeSummary]:
        """Per-name gauge envelopes across every snapshot."""
        return dict(self._gauges)

    def histograms(self) -> Dict[str, HistogramSummary]:
        """Per-name distributions merged across processes."""
        merged: Dict[str, HistogramSummary] = {}
        for (_, _, name), snapshot in self._histograms.items():
            summary = merged.get(name)
            if summary is None:
                summary = merged[name] = HistogramSummary()
            summary.merge(snapshot)
        return merged


__all__ = [
    "GaugeSummary",
    "HistogramSummary",
    "MetricsAggregate",
]
