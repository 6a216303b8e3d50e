"""The live trace view: tail one trace file, render progress.

``repro-synthesize watch --trace PATH`` drives this module: a
:class:`TraceTail` incrementally reads new records from the shared
JSONL trace file (buffering a torn final line until its writer finishes
the append), a :class:`TraceWatch` folds them into live state, and
:meth:`TraceWatch.render` draws one frame — campaign cell progress,
adaptive rounds, shard progress, and in-flight spans.

Everything is derived from the trace file alone: the same view works
for a serial pipeline run, a pool run and a campaign, because all
emit the one span schema of :mod:`repro.trace`.  The
tail parses lines with the same tolerant parser as the offline readers
and the state classifies records with the same
:func:`~repro.trace.tracer.record_shape` rule as the run-summary fold
(:mod:`repro.trace.metrics`); the two keep separate state because they
answer different questions, live progress versus run totals.
"""

from __future__ import annotations

import os
import sys
import time as _time
from typing import Dict, List, Optional, Tuple

from repro.trace.tracer import parse_lines, record_shape

#: Matching a span end record to its begin record across interleaved
#: multi-process files.
SpanKey = Tuple[int, str, str, float]

class TraceTail:
    """Incremental reader over an append-only JSONL trace file.

    Keeps a byte offset and a partial-line buffer: a read that ends
    mid-line (a writer is inside its append) holds the fragment until
    the terminating newline arrives, so records are never half-parsed.
    A restarted run rewriting its path must not leave the tail at a
    stale offset, so the tail resets and re-reads from the top when the
    file is smaller than the offset (truncated), is a different file
    (its ``st_dev``/``st_ino`` changed: replaced), or no longer starts
    with the first line read (rewritten in place).
    """

    def __init__(self, path: str):
        self.path = path
        self._offset = 0
        self._buffer = b""
        self._identity: Optional[Tuple[int, int]] = None
        #: The file's first line as far as read (with its newline once
        #: complete): a changed first line means a rewritten file.
        self._head = b""

    def poll(self) -> List[dict]:
        """Every complete new record since the last poll."""
        try:
            with open(self.path, "rb") as stream:
                status = os.fstat(stream.fileno())
                identity = (status.st_dev, status.st_ino)
                if (
                    identity != self._identity
                    or status.st_size < self._offset
                    or stream.read(len(self._head)) != self._head
                ):
                    # Truncated/replaced/rewritten underneath us.
                    self._identity = identity
                    self._offset = 0
                    self._buffer = b""
                    self._head = b""
                stream.seek(self._offset)
                chunk = stream.read()
        except FileNotFoundError:
            return []
        if not chunk:
            return []
        self._offset += len(chunk)
        if not self._head.endswith(b"\n"):
            newline = chunk.find(b"\n")
            self._head += chunk if newline < 0 else chunk[: newline + 1]
        data = self._buffer + chunk
        end = data.rfind(b"\n") + 1
        self._buffer = data[end:]  # b"" after a complete final line
        text = data[:end].decode("utf-8", errors="replace")
        return list(parse_lines(text.split("\n")))


class TraceWatch:
    """Fold trace records into the live progress state."""

    def __init__(self):
        self.records = 0
        self.campaign_name: Optional[str] = None
        self.cells_total = 0
        self.cells_done = 0
        self.cells_resumed = 0
        self.cells_failed = 0
        self.last_cell: Optional[dict] = None
        self.last_round: Optional[dict] = None
        self.last_phase: Optional[dict] = None
        self.shards_done = 0
        self.shards_resumed = 0
        self.failures = 0
        #: begin records with no matching end yet.
        self.in_flight: Dict[SpanKey, dict] = {}

    # -- ingestion -----------------------------------------------------

    def feed(self, record: dict) -> None:
        self.records += 1
        kind = record.get("kind", "")
        shape = record_shape(record)
        if shape == "end":
            self.in_flight.pop(self._span_key(record), None)
            self._completed_span(kind, record)
        elif shape == "begin":
            self.in_flight[self._span_key(record)] = record
        else:
            self._event(kind, record)

    def feed_all(self, records: List[dict]) -> None:
        for record in records:
            self.feed(record)

    @staticmethod
    def _span_key(record: dict) -> SpanKey:
        return (
            int(record.get("pid", 0)),
            str(record.get("source", "")),
            str(record.get("kind", "")),
            float(record.get("start_ts", 0.0)),
        )

    def _completed_span(self, kind: str, record: dict) -> None:
        if kind == "cell":
            if record.get("ok", True):
                self.cells_done += 1
            else:
                self.cells_failed += 1
            self.last_cell = record
        elif kind == "round":
            self.last_round = record
        elif kind in ("phase", "pipeline"):
            self.last_phase = record
        elif kind == "shard":
            self.shards_done += 1

    def _event(self, kind: str, record: dict) -> None:
        if kind == "campaign-start":
            self.campaign_name = record.get("campaign")
            self.cells_total = int(record.get("cells", 0))
        elif kind == "cell-resumed":
            self.cells_resumed += 1
        elif kind == "round-resumed":
            self.last_round = record
        elif kind == "shard-resumed":
            self.shards_resumed += 1
        elif kind == "failure":
            self.failures += 1

    # -- rendering -----------------------------------------------------

    def render(self, path: str = "", now: Optional[float] = None) -> str:
        if now is None:
            now = _time.time()
        lines = [
            "watch %s— %d records, %d in-flight span(s)"
            % ("%s " % path if path else "", self.records, len(self.in_flight))
        ]
        if (
            self.campaign_name is not None
            or self.cells_done
            or self.cells_resumed
            or self.cells_failed
        ):
            total = self.cells_total or "?"
            lines.append(
                "campaign %s: %d/%s cells done (%d resumed, %d failed)"
                % (
                    self.campaign_name or "?",
                    self.cells_done + self.cells_resumed,
                    total,
                    self.cells_resumed,
                    self.cells_failed,
                )
            )
            if self.last_cell is not None:
                lines.append(
                    "  last cell: %s (%.3fs%s)"
                    % (
                        self.last_cell.get("cell", "?"),
                        float(self.last_cell.get("seconds", 0.0)),
                        "" if self.last_cell.get("ok", True) else ", FAILED",
                    )
                )
        if self.last_round is not None:
            lines.append(
                "adaptive: round %s — %s cases, %.1f%% coverage, "
                "%s-atom contract%s"
                % (
                    self.last_round.get("round", "?"),
                    self.last_round.get("cumulative_cases", "?"),
                    100.0 * float(self.last_round.get("atom_coverage", 0.0)),
                    self.last_round.get("contract_size", "?"),
                    " [%s]" % self.last_round["stop_reason"]
                    if self.last_round.get("stop_reason")
                    else "",
                )
            )
        if self.shards_done or self.shards_resumed:
            lines.append(
                "shards: %d evaluated, %d resumed"
                % (self.shards_done, self.shards_resumed)
            )
        if self.failures:
            lines.append("failures: %d (retries/timeouts/quarantines)" % self.failures)
        for key in sorted(self.in_flight):
            record = self.in_flight[key]
            detail = []
            for field in ("phase", "cell", "round", "start_id"):
                if field in record:
                    detail.append("%s=%s" % (field, record[field]))
            lines.append(
                "  in-flight: %s%s %s(%.1fs)"
                % (
                    record.get("kind", "?"),
                    " [%s]" % record["source"] if record.get("source") else "",
                    "%s " % " ".join(detail) if detail else "",
                    max(0.0, now - float(record.get("start_ts", now))),
                )
            )
        if self.last_phase is not None:
            lines.append(
                "last phase: %s %.3fs %s"
                % (
                    self.last_phase.get("phase", self.last_phase.get("kind", "?")),
                    float(self.last_phase.get("seconds", 0.0)),
                    "ok" if self.last_phase.get("ok", True) else "FAILED",
                )
            )
        return "\n".join(lines)


def render_once(path: str, now: Optional[float] = None) -> str:
    """One frame over the file's current contents (``watch --once``)."""
    watch_state = TraceWatch()
    watch_state.feed_all(TraceTail(path).poll())
    return watch_state.render(path, now=now)


def watch(
    path: str,
    interval: float = 1.0,
    once: bool = False,
    stream=None,
    max_frames: Optional[int] = None,
) -> int:
    """Tail ``path`` and redraw the live view every ``interval``
    seconds until interrupted (``once`` renders a single frame;
    ``max_frames`` bounds the loop for tests)."""
    stream = stream if stream is not None else sys.stdout
    tail = TraceTail(path)
    state = TraceWatch()
    frames = 0
    clear = not once and getattr(stream, "isatty", lambda: False)()
    try:
        while True:
            state.feed_all(tail.poll())
            frame = state.render(path)
            if clear:
                stream.write("\x1b[2J\x1b[H")
            stream.write(frame + "\n")
            stream.flush()
            frames += 1
            if once or (max_frames is not None and frames >= max_frames):
                return 0
            _time.sleep(interval)
    except KeyboardInterrupt:
        return 0
