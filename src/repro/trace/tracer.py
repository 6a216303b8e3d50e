"""Structured JSONL trace spans shared by every layer of the toolchain.

One span schema covers the whole system: pipeline phases, executor
shard attempts, campaign cells, adaptive rounds, and service job and
request transitions all append records to one shared trace file, so a
single tail of that file reconstructs a serial run, a campaign, or the
distributed service alike (``repro-synthesize watch``).

The idiom follows the OpenEvent-AI workflow exemplar
(``@trace_step``/``@profile_step`` decorators emitting per-step JSONL
records), adapted to multi-process appenders: lines go out through
:func:`repro.checkpoint.append_jsonl_line` — a single flock-serialized
``O_APPEND`` write — so brokers, pool workers, and independent worker
processes can interleave in one file without tearing lines.

Four record shapes, discriminated by their fields (:func:`record_shape`)::

    {"ts": t, "pid": p, "kind": k, ...}                      # event
    {"ts": t, "pid": p, "kind": "metric", "counters": ...}   # metric
    {"ts": t0, "start_ts": t0, "pid": p, "kind": k, ...}     # span begin
    {"ts": t1, "start_ts": t0, "seconds": s, "ok": b, ...}   # span end

Every span record carries ``start_ts``: the begin record announces
in-flight work (what ``watch`` shows as running), and the end record's
duration survives reordering in interleaved multi-process files —
matching end to begin is ``(pid, source, kind, start_ts)``.  Events may
carry a ``seconds`` payload (``campaign-end``); only ``start_ts`` marks
a span.  ``metric`` records are registry snapshots
(:mod:`repro.metrics.registry`).  Any other shape a newer writer adds
reads as an event, so old readers stay correct as the format grows.

Every reader parses lines through :func:`parse_lines`, which skips
blank and unparseable lines instead of raising: a live multi-writer
file legitimately ends in a torn line while a writer is mid-append
(the next append repairs the boundary — see
:func:`repro.checkpoint.append_jsonl_line`).

A :class:`Tracer` built with ``path=None`` (and no collector) is a
no-op whose hot path allocates nothing — ``span()`` returns a shared
singleton and ``event()`` returns before building a record — so call
sites never guard on tracing being configured.
"""

from __future__ import annotations

import functools
import json
import os
import time
from typing import Callable, Iterable, Iterator, List, Optional

from repro.checkpoint import append_jsonl_line


def parse_lines(lines: Iterable[str]) -> Iterator[dict]:
    """Every record among ``lines``: blank, torn and non-object lines
    are skipped, never raised on."""
    for line in lines:
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue  # torn or in-flight line
        if isinstance(record, dict):
            yield record


def iter_trace(path: str) -> Iterator[dict]:
    """Every parseable record of a JSONL file, streamed in file order
    (a missing file yields nothing, like an empty trace)."""
    try:
        stream = open(path, "r", encoding="utf-8", errors="replace")
    except FileNotFoundError:
        return
    with stream:
        yield from parse_lines(stream)


def read_trace(path: str) -> List[dict]:
    """Every parseable record of a JSONL file, as a list."""
    return list(iter_trace(path))


def record_shape(record: dict) -> str:
    """Which of the four wire shapes ``record`` is: ``"metric"``,
    ``"event"``, ``"begin"`` or ``"end"``."""
    if "start_ts" in record:
        return "end" if "seconds" in record else "begin"
    return "metric" if record.get("kind") == "metric" else "event"


class _NullSpan:
    """The shared no-op span: entering, exiting, and adding fields all
    do nothing.  A singleton, so a disabled tracer's ``span()`` call
    allocates nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def add(self, **fields) -> None:
        """Ignore late-bound fields (the span is disabled)."""


_NULL_SPAN = _NullSpan()


class _Span:
    """One live span: emits a begin record on entry and an end record
    (``seconds``, ``ok``) on exit, both carrying ``start_ts``.

    Fields added via :meth:`add` *after* entry travel on the end record
    only — the idiom for outcomes that are unknown up front (cache
    hits, shard statistics, contract sizes).
    """

    __slots__ = ("_tracer", "kind", "fields", "start_ts", "_start_perf")

    def __init__(self, tracer: "Tracer", kind: str, fields: dict):
        self._tracer = tracer
        self.kind = kind
        self.fields = fields
        self.start_ts: Optional[float] = None
        self._start_perf: Optional[float] = None

    def add(self, **fields) -> None:
        """Attach fields to the span's end record."""
        self.fields.update(fields)

    def __enter__(self) -> "_Span":
        self.start_ts = time.time()
        self._start_perf = time.perf_counter()
        record = {
            "ts": self.start_ts,
            "start_ts": self.start_ts,
            "pid": os.getpid(),
            "kind": self.kind,
        }
        if self._tracer.source:
            record["source"] = self._tracer.source
        record.update(self.fields)
        self._tracer._emit(record)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        seconds = time.perf_counter() - self._start_perf
        record = {
            "ts": time.time(),
            "start_ts": self.start_ts,
            "pid": os.getpid(),
            "kind": self.kind,
            "seconds": seconds,
            "ok": exc_type is None,
        }
        if self._tracer.source:
            record["source"] = self._tracer.source
        record.update(self.fields)
        self._tracer._emit(record)
        return False


class Tracer:
    """Append structured trace events and spans to a shared JSONL file.

    ``source`` labels the emitting component ("broker", "worker-3",
    "pipeline", ...) on every record, so one file interleaves cleanly.
    ``collector``, when given, receives every record as a dict at full
    float precision *in addition to* (or instead of) the file — the
    pipeline uses it to project :class:`~repro.pipeline.PhaseTimings`
    from the span stream without a file round-trip.
    """

    def __init__(
        self,
        path: Optional[str],
        source: str = "",
        collector: Optional[List[dict]] = None,
    ):
        self.path = path
        self.source = source
        self.collector = collector
        if path:
            parent = os.path.dirname(path)
            if parent:
                os.makedirs(parent, exist_ok=True)

    @property
    def enabled(self) -> bool:
        """Whether records reach a file (the durable trace)."""
        return self.path is not None

    @property
    def active(self) -> bool:
        """Whether records reach anything (file or collector)."""
        return self.path is not None or self.collector is not None

    # -- emission ------------------------------------------------------

    def _emit(self, record: dict) -> None:
        if self.collector is not None:
            self.collector.append(record)
        if self.path is not None:
            # Rounded on the wire only: the collector keeps full
            # precision so span-projected timings match in-process
            # accumulators exactly.
            line = {
                key: round(value, 6) if type(value) is float else value
                for key, value in record.items()
            }
            append_jsonl_line(self.path, line)

    def event(self, kind: str, **fields) -> None:
        """Emit one instantaneous event."""
        if self.path is None and self.collector is None:
            return
        record = {"ts": time.time(), "pid": os.getpid(), "kind": kind}
        if self.source:
            record["source"] = self.source
        record.update(fields)
        self._emit(record)

    def span(self, kind: str, **fields):
        """A context manager timing its body: a begin record on entry,
        an end record with ``seconds`` and ``ok`` on exit (``ok=False``
        when the body raised; the exception propagates).  Disabled
        tracers return a shared no-op singleton."""
        if self.path is None and self.collector is None:
            return _NULL_SPAN
        return _Span(self, kind, fields)

    def record(
        self, kind: str, seconds: float, ok: bool = True, **fields
    ) -> None:
        """Emit one already-measured span end record (no begin line) —
        for durations accounted elsewhere, e.g. the adaptive loop's
        synthesis share."""
        if self.path is None and self.collector is None:
            return
        now = time.time()
        record = {
            "ts": now,
            "start_ts": now - seconds,
            "pid": os.getpid(),
            "kind": kind,
            "seconds": seconds,
            "ok": ok,
        }
        if self.source:
            record["source"] = self.source
        record.update(fields)
        self._emit(record)

    def child(self, source: str) -> "Tracer":
        """A tracer on the same file (and collector) with a different
        source label — process-safe, since appends are flock-serialized
        single writes."""
        return Tracer(self.path, source=source, collector=self.collector)


#: The process-wide tracer the decorators (and the executor shard seam)
#: resolve.  A module global, so forked pool workers inherit the
#: installation exactly like the fault-injection seam does.
_CURRENT: Tracer = Tracer(None)


def install_tracer(tracer: Optional[Tracer]) -> Tracer:
    """Install ``tracer`` as the process-wide current tracer; returns
    the previous one so callers can restore it (``None`` installs the
    no-op tracer)."""
    global _CURRENT
    previous = _CURRENT
    _CURRENT = tracer if tracer is not None else Tracer(None)
    return previous


def current_tracer() -> Tracer:
    """The process-wide tracer (a no-op tracer when none installed)."""
    return _CURRENT


def trace_step(kind: str, **static_fields) -> Callable:
    """Decorator: run the function inside a span of the *current*
    tracer (begin + end records).  With no tracer installed the
    wrapper is a plain call."""

    def decorate(function: Callable) -> Callable:
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            tracer = _CURRENT
            if not tracer.active:
                return function(*args, **kwargs)
            with tracer.span(kind, **static_fields):
                return function(*args, **kwargs)

        return wrapper

    return decorate


def profile_step(kind: str, **static_fields) -> Callable:
    """Decorator: emit one end-only span record per call (duration and
    ``ok``, no begin line) — the lightweight profiling idiom for hot
    call sites where per-call begin records would double file volume."""

    def decorate(function: Callable) -> Callable:
        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            tracer = _CURRENT
            if not tracer.active:
                return function(*args, **kwargs)
            started = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            except BaseException:
                tracer.record(
                    kind,
                    time.perf_counter() - started,
                    ok=False,
                    **static_fields,
                )
                raise
            tracer.record(kind, time.perf_counter() - started, **static_fields)
            return result

        return wrapper

    return decorate
