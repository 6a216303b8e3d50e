"""Chrome-trace / Perfetto export of a span stream.

``repro trace export --format chrome`` converts a trace file into the
Trace Event JSON format (``{"traceEvents": [...]}``) that
``chrome://tracing`` and https://ui.perfetto.dev load directly:

- completed span records become complete (``"ph": "X"``) duration
  events — nesting falls out of the timestamps, so pipeline > phase >
  shard and campaign > cell structure renders as stacked slices;
- instantaneous events become ``"ph": "i"`` instants on their thread;
- metric snapshots become ``"ph": "C"`` counter tracks (gauges and
  counters both — cumulative counters render as monotone staircases);
- every process and ``(pid, source)`` lane gets ``"M"`` metadata
  naming it, so the broker, pool workers, and service workers appear
  as separately named rows.

``pid`` is the real OS pid from the records; ``tid`` is a stable
small integer assigned per ``(pid, source)`` in first-seen order —
child tracers (``campaign``, ``adaptive``, ``worker-N``...) each get
their own lane inside their process.  Timestamps are rebased to the
earliest record and scaled to microseconds, the format's unit.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Optional, Tuple

from repro.trace.metrics import span_group
from repro.trace.tracer import iter_trace, record_shape


def _number(value, default=0.0) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        return default


#: Span payload keys that make useful ``args`` in the viewer.
_ARG_KEYS = (
    "phase",
    "cell",
    "round",
    "start_id",
    "count",
    "job",
    "request",
    "executor",
    "cases",
    "atoms",
    "atom_coverage",
    "cache_hit",
    "ok",
)


def chrome_trace_events(records: Iterable[dict]) -> List[dict]:
    """The Trace Event list for a record stream (one pass)."""
    events: List[dict] = []
    lanes: Dict[Tuple[int, str], int] = {}
    pids_named: Dict[int, bool] = {}
    base_ts: Optional[float] = None

    def lane(pid: int, source: str) -> int:
        key = (pid, source)
        tid = lanes.get(key)
        if tid is None:
            tid = lanes[key] = len(lanes) + 1
            if pid not in pids_named:
                pids_named[pid] = True
                events.append(
                    {
                        "ph": "M",
                        "name": "process_name",
                        "pid": pid,
                        "tid": 0,
                        "args": {"name": "repro pid %s" % pid},
                    }
                )
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": source or "main"},
                }
            )
        return tid

    def micros(ts: float) -> float:
        return round((ts - base_ts) * 1e6, 3)

    for record in records:
        pid = record.get("pid", 0)
        source = str(record.get("source", ""))
        ts = _number(record.get("ts"))
        start_ts = record.get("start_ts")
        if base_ts is None:
            base_ts = _number(start_ts, ts) if start_ts is not None else ts
            base_ts = min(base_ts, ts)
        shape = record_shape(record)
        if shape == "metric":
            tid = lane(pid, source)
            tracks = dict(record.get("gauges") or {})
            tracks.update(record.get("counters") or {})
            for name, value in tracks.items():
                events.append(
                    {
                        "ph": "C",
                        "name": name,
                        "cat": "metric",
                        "ts": micros(ts),
                        "pid": pid,
                        "tid": tid,
                        "args": {"value": _number(value)},
                    }
                )
        elif shape == "end":
            # A completed span: one self-contained duration slice.
            args = {
                key: record[key] for key in _ARG_KEYS if key in record
            }
            events.append(
                {
                    "ph": "X",
                    "name": span_group(record),
                    "cat": str(record.get("kind", "span")),
                    "ts": micros(_number(start_ts)),
                    "dur": round(_number(record.get("seconds")) * 1e6, 3),
                    "pid": pid,
                    "tid": lane(pid, source),
                    "args": args,
                }
            )
        elif shape == "event":
            events.append(
                {
                    "ph": "i",
                    "name": str(record.get("kind", "event")),
                    "cat": "event",
                    "ts": micros(ts),
                    "pid": pid,
                    "tid": lane(pid, source),
                    "s": "t",
                    "args": {
                        key: record[key] for key in _ARG_KEYS if key in record
                    },
                }
            )
        # Span begin records are dropped: their slice is emitted in
        # full by the matching end record; an end that never arrives
        # (crashed writer) has no known duration to draw.
    return events


def export_chrome(trace_path: str, output_path: str) -> dict:
    """Write the Chrome-trace document for ``trace_path``; returns it.

    The document is the object form (``traceEvents`` + metadata), the
    shape both ``chrome://tracing`` and Perfetto accept.
    """
    document = {
        "traceEvents": chrome_trace_events(iter_trace(trace_path)),
        "displayTimeUnit": "ms",
        "otherData": {"source": trace_path, "exporter": "repro trace export"},
    }
    with open(output_path, "w", encoding="utf-8") as stream:
        json.dump(document, stream)
        stream.write("\n")
    return document


__all__ = ["chrome_trace_events", "export_chrome"]
