"""Named counters, gauges, and histograms over the trace stream.

:class:`Metrics` is the quantitative half of the observability layer:
call sites record *counts* (cache hits, solver cold solves, retries),
*levels* (queue depth, worker utilization, adaptive coverage), and
*distributions* (batch-engine lane occupancy, ILP constraint counts)
against a per-process registry, and the registry snapshots its state
into the same flock-serialized JSONL trace file the spans travel on —
as one field-discriminated ``metric`` record per flush::

    {"ts": t, "pid": p, "kind": "metric", "source": s,
     "counters": {...}, "gauges": {...}, "histograms": {...},
     "final": b}

Process safety is by construction, exactly like the tracer's: every
process (broker, pool worker, service worker) keeps its *own*
registry, counters and histograms are cumulative per process, and
snapshots interleave in the shared file through
:func:`repro.checkpoint.append_jsonl_line` — so readers merge by
taking each ``(pid, source, name)``'s last snapshot and summing
across processes (:mod:`repro.metrics.fold`), and no cross-process
lock ever guards a hot-path increment.

The no-op contract mirrors :class:`repro.trace.Tracer`: a registry
built over no sink (``Metrics(None)``, or a disabled tracer) hands
out shared null instruments whose ``inc``/``set``/``observe`` do
nothing and allocate nothing, so instrumented hot loops never guard
on metrics being configured.

Naming convention: dotted lowercase ``component.noun[.verb]`` —
``dataset.cache.hits``, ``batchsim.lanes.active``,
``solver.cold_solves``, ``resilience.retries``, ``queue.depth``,
``worker.utilization``, ``adaptive.round.coverage``.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import TYPE_CHECKING, Dict, Optional, Union

if TYPE_CHECKING:  # repro.trace imports this package's fold module;
    # a runtime import here would be circular.  The registry only
    # duck-types the tracer (``.active``, ``.event``) anyway.
    from repro.trace.tracer import Tracer

Number = Union[int, float]


def _geometric_bounds() -> tuple:
    """Histogram bucket upper edges: powers of two from 1e-6 up.

    One fixed layout for every histogram keeps snapshots mergeable
    across processes and runs: bucket ``i`` counts observations with
    ``value <= _BUCKET_BOUNDS[i]`` (and the overflow bucket, index
    ``len(_BUCKET_BOUNDS)``, everything larger).  The range covers
    sub-microsecond durations through billion-scale counts at a
    constant relative error of 2x — percentile estimates are exact to
    one bucket width, which is all a run report needs.
    """
    bounds = []
    value = 1e-6
    while value < 1e9:
        bounds.append(value)
        value *= 2.0
    return tuple(bounds)


_BUCKET_BOUNDS = _geometric_bounds()


class _NullCounter:
    """The shared no-op counter (disabled registry)."""

    __slots__ = ()

    def inc(self, amount: Number = 1) -> None:
        """Ignore the increment (metrics are disabled)."""


class _NullGauge:
    """The shared no-op gauge (disabled registry)."""

    __slots__ = ()

    def set(self, value: Number) -> None:
        """Ignore the level (metrics are disabled)."""


class _NullHistogram:
    """The shared no-op histogram (disabled registry)."""

    __slots__ = ()

    def observe(self, value: Number) -> None:
        """Ignore the observation (metrics are disabled)."""


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class Counter:
    """A monotonically increasing count, cumulative per process."""

    __slots__ = ("value",)

    def __init__(self):
        self.value: Number = 0

    def inc(self, amount: Number = 1) -> None:
        self.value += amount


class Gauge:
    """A level: the snapshot carries the last value set."""

    __slots__ = ("value",)

    def __init__(self):
        self.value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value


class Histogram:
    """A distribution over fixed geometric buckets.

    ``observe`` is the hot-path entry: one bisect into the shared
    bound table plus four scalar updates, no allocation beyond the
    arithmetic itself.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min = 0.0
        self.max = 0.0
        self.buckets = [0] * (len(_BUCKET_BOUNDS) + 1)

    def observe(self, value: Number) -> None:
        if self.count == 0 or value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self.count += 1
        self.total += value
        self.buckets[bisect_left(_BUCKET_BOUNDS, value)] += 1

    def snapshot(self) -> dict:
        """The wire form: only non-empty buckets, JSON-keyed."""
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": {
                str(index): count
                for index, count in enumerate(self.buckets)
                if count
            },
        }


class Metrics:
    """One process's metric registry, snapshotting into a trace file.

    ``tracer`` supplies the sink and the ``source`` label; a ``None``
    (or inactive) tracer disables the registry entirely — every
    instrument lookup then returns a shared null singleton, so the
    disabled hot path allocates nothing (pinned by the tracemalloc
    test, like the disabled tracer's).

    ``flush_interval`` throttles :meth:`maybe_flush`, the periodic
    snapshot hook loop seams call; :meth:`flush` emits one
    unconditionally (``final=True`` marks the end-of-run snapshot).
    """

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        flush_interval: float = 10.0,
    ):
        self.tracer = tracer
        self.flush_interval = flush_interval
        self._enabled = tracer is not None and tracer.active
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._last_flush: Optional[float] = None

    @property
    def enabled(self) -> bool:
        """Whether instruments record and snapshots emit."""
        return self._enabled

    # -- instruments ---------------------------------------------------

    def counter(self, name: str):
        """The named counter (a shared no-op when disabled)."""
        if not self._enabled:
            return _NULL_COUNTER
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter()
        return instrument

    def gauge(self, name: str):
        """The named gauge (a shared no-op when disabled)."""
        if not self._enabled:
            return _NULL_GAUGE
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge()
        return instrument

    def histogram(self, name: str):
        """The named histogram (a shared no-op when disabled)."""
        if not self._enabled:
            return _NULL_HISTOGRAM
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram()
        return instrument

    # -- snapshots -----------------------------------------------------

    def maybe_flush(self, now: Optional[float] = None) -> None:
        """Periodic snapshot: emit when ``flush_interval`` elapsed
        since the last flush (loop seams call this every iteration;
        free when disabled)."""
        if not self._enabled:
            return
        import time

        if now is None:
            now = time.monotonic()
        if self._last_flush is None:
            # The interval starts at first use, so a run shorter than
            # one interval emits only its final snapshot.
            self._last_flush = now
            return
        if now - self._last_flush >= self.flush_interval:
            self.flush()
            self._last_flush = now

    def flush(self, final: bool = False) -> None:
        """Emit one ``metric`` snapshot record (skipped while nothing
        has been recorded — an uninstrumented run adds no noise)."""
        if not self._enabled:
            return
        if not (self._counters or self._gauges or self._histograms):
            return
        self.tracer.event(
            "metric",
            counters={
                name: instrument.value
                for name, instrument in self._counters.items()
            },
            gauges={
                name: instrument.value
                for name, instrument in self._gauges.items()
            },
            histograms={
                name: instrument.snapshot()
                for name, instrument in self._histograms.items()
            },
            final=final,
        )


#: The process-wide registry the instrumented seams resolve — a module
#: global like the tracer's, so forked pool workers inherit the
#: installation (each then accumulates its own process's counts).
_CURRENT: Metrics = Metrics(None)


def install_metrics(metrics: Optional[Metrics]) -> Metrics:
    """Install ``metrics`` as the process-wide registry; returns the
    previous one so callers can restore it (``None`` installs the
    disabled registry)."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = metrics if metrics is not None else Metrics(None)
    return previous


def current_metrics() -> Metrics:
    """The process-wide registry (disabled when none installed)."""
    return _CURRENT
