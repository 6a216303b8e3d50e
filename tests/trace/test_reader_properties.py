"""Every trace reader agrees with one classification, on generated streams.

Two properties over hypothesis-generated trace files:

- a :class:`TraceTail` polling between arbitrary byte chunks of a
  writer's appends yields exactly the records :func:`read_trace` reads
  from the finished file;
- the run-summary fold, the live watch state, the chrome export and
  :meth:`PhaseTimings.from_spans` all count the same metric snapshots,
  events, span begins and span ends that the generator wrote — among
  blank and torn lines, events carrying a ``seconds`` payload, end-only
  spans and record shapes no reader knows.
"""

import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pipeline import PhaseTimings
from repro.trace import TraceTail, TraceWatch, fold_file, read_trace
from repro.trace.export import chrome_trace_events

pytestmark = pytest.mark.trace

_PHASES = ("setup", "evaluate", "synthesize", "verify")
_SPAN_KINDS = ("pipeline", "phase", "cell", "round", "shard", "execute", "ilp-solve")
_EVENT_KINDS = ("campaign-end", "claim", "pipeline")

_seconds = st.integers(min_value=0, max_value=10**6).map(lambda n: n / 1000.0)
_names = st.sampled_from(("a.b", "queue.depth", "solver.cold_solves", "x"))


@st.composite
def _span_fields(draw, start_ts):
    kind = draw(st.sampled_from(_SPAN_KINDS))
    record = {
        "ts": start_ts,
        "start_ts": start_ts,
        "pid": draw(st.integers(1, 3)),
        "kind": kind,
    }
    if draw(st.booleans()):
        record["source"] = draw(st.sampled_from(("campaign", "worker-1")))
    if kind == "phase":
        record["phase"] = draw(st.sampled_from(_PHASES))
    return record


@st.composite
def _items(draw):
    """One generated line: ``(label, record)`` for a record, or
    ``(None, text)`` for a blank or torn line."""
    start_ts = 1000.0 + draw(st.integers(0, 10**6)) / 8.0
    choice = draw(
        st.sampled_from(("span", "end-only", "event", "metric", "future", "noise"))
    )
    if choice == "span":
        begin = draw(_span_fields(start_ts))
        end = dict(begin, seconds=draw(_seconds), ok=draw(st.booleans()))
        end["ts"] = start_ts + end["seconds"]
        if draw(st.booleans()):
            return [("begin", begin), ("end", end)]
        return [("begin", begin)]  # still in flight
    if choice == "end-only":
        # Tracer.record: an end record with no begin line.
        end = draw(_span_fields(start_ts))
        end["seconds"] = draw(_seconds)
        end["ok"] = True
        return [("end", end)]
    if choice == "event":
        event = {"ts": start_ts, "pid": 1, "kind": draw(st.sampled_from(_EVENT_KINDS))}
        if draw(st.booleans()):
            event["seconds"] = draw(_seconds)  # a payload, as on campaign-end
        return [("event", event)]
    if choice == "metric":
        tracks = st.dictionaries(_names, st.integers(0, 100), max_size=3)
        metric = {
            "ts": start_ts,
            "pid": draw(st.integers(1, 3)),
            "kind": "metric",
            "counters": draw(tracks),
            "gauges": draw(tracks),
            "histograms": {},
        }
        return [("metric", metric)]
    if choice == "future":
        future = {
            "ts": start_ts,
            "pid": 1,
            "kind": draw(st.text("xyz-9", min_size=1, max_size=8)),
            "payload": draw(st.lists(st.integers(), max_size=3)),
        }
        return [("event", future)]
    torn = json.dumps({"ts": start_ts, "pid": 1, "kind": "torn"})
    return [(None, draw(st.sampled_from(("", "   ", torn[: len(torn) // 2], "[1]"))))]


_streams = st.lists(_items(), max_size=25).map(
    lambda groups: [item for group in groups for item in group]
)


def _serialize(items):
    """The file a writer leaves: one line per item, newline-terminated."""
    lines = [text if label is None else json.dumps(text) for label, text in items]
    return "".join(line + "\n" for line in lines).encode("utf-8")


def _expected_timings(records):
    """Brute force: the last end record of each pipeline/phase span."""
    expected = {}
    for label, record in records:
        if label != "end":
            continue
        if record["kind"] == "pipeline":
            expected["total_seconds"] = record["seconds"]
        elif record["kind"] == "phase":
            expected[record["phase"]] = record["seconds"]
    return expected


class TestTailChunking:
    @settings(max_examples=100, deadline=None)
    @given(
        items=_streams,
        cuts=st.lists(st.integers(min_value=0, max_value=4000), max_size=12),
    )
    def test_polls_between_chunks_yield_the_final_file(self, items, cuts):
        data = _serialize(items)
        bounds = sorted({cut % (len(data) + 1) for cut in cuts} | {len(data)})
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "trace.jsonl")
            tail = TraceTail(path)
            polled = list(tail.poll())  # before the file exists
            written = 0
            for bound in bounds:
                with open(path, "ab") as stream:
                    stream.write(data[written:bound])
                written = bound
                polled.extend(tail.poll())
            assert polled == read_trace(path)


class TestOneClassification:
    @settings(max_examples=100, deadline=None)
    @given(items=_streams)
    def test_every_reader_agrees_with_the_generator(self, items):
        records = [(label, record) for label, record in items if label]
        count = {shape: 0 for shape in ("metric", "event", "begin", "end")}
        for label, _ in records:
            count[label] += 1
        open_spans = set()
        for label, record in records:
            key = (record["pid"], record.get("source", ""), record["kind"])
            if label == "begin":
                open_spans.add(key + (record["start_ts"],))
            elif label == "end":
                open_spans.discard(key + (record["start_ts"],))

        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "trace.jsonl")
            with open(path, "wb") as stream:
                stream.write(_serialize(items))
            parsed = read_trace(path)
            metrics = fold_file(path)
        assert parsed == [record for _, record in records]

        assert metrics.record_count == len(records)
        assert metrics.metric_count == count["metric"]
        assert metrics.event_count == count["event"]
        assert metrics.span_count == count["end"]

        watch = TraceWatch()
        watch.feed_all(parsed)
        assert watch.records == len(records)
        assert len(watch.in_flight) == len(open_spans)

        phases = [event["ph"] for event in chrome_trace_events(parsed)]
        assert phases.count("X") == count["end"]
        assert phases.count("i") == count["event"]
        assert phases.count("C") == sum(
            len(set(record["counters"]) | set(record["gauges"]))
            for label, record in records
            if label == "metric"
        )

        timings = PhaseTimings.from_spans(parsed)
        expected = _expected_timings(records)
        assert timings.total_seconds == expected.get("total_seconds", 0.0)
        assert timings.setup_seconds == expected.get("setup", 0.0)
        assert timings.evaluation_seconds == expected.get("evaluate", 0.0)
        assert timings.synthesis_seconds == expected.get("synthesize", 0.0)
        assert timings.verification_seconds == expected.get("verify", 0.0)
