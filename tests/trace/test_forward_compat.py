"""Old readers tolerate new record shapes in the shared trace file.

The trace JSONL is an append-only union of field-discriminated shapes
written by multiple tool versions: the ``metric`` snapshot shape landed
after spans/events, and future shapes will land after it.  Every reader
must skip what it does not understand rather than crash — pinned here
by feeding the ``metric`` shape and a synthetic future one through all
three readers.
"""

import json

import pytest

from repro.metrics.report import render_markdown
from repro.pipeline import PhaseTimings
from repro.trace import fold, fold_file, record_shape
from repro.trace.watch import TraceWatch

pytestmark = pytest.mark.trace


METRIC_RECORD = {
    "ts": 103.0,
    "pid": 1,
    "kind": "metric",
    "source": "main",
    "counters": {"dataset.cache.hits": 1},
    "gauges": {},
    "histograms": {},
    "final": True,
}

#: A shape no current reader knows: new kind, new discriminating
#: fields, a nested payload.
FUTURE_RECORD = {
    "ts": 104.0,
    "pid": 1,
    "kind": "flamegraph-v9",
    "source": "main",
    "payload": {"frames": [[0, 1], [1, 2]], "weights": [3, 4]},
    "schema": 9,
}

RECORDS = [
    {"ts": 100.0, "start_ts": 100.0, "pid": 1, "kind": "pipeline"},
    {
        "ts": 101.0,
        "start_ts": 100.0,
        "pid": 1,
        "kind": "phase",
        "phase": "setup",
        "seconds": 1.0,
        "ok": True,
    },
    METRIC_RECORD,
    FUTURE_RECORD,
    {
        "ts": 105.0,
        "start_ts": 100.0,
        "pid": 1,
        "kind": "pipeline",
        "seconds": 5.0,
        "ok": True,
    },
]


class TestFold:
    def test_unknown_shapes_pass_through(self, tmp_path):
        metrics = fold(RECORDS)
        assert metrics.record_count == len(RECORDS)
        assert metrics.span_count == 2
        assert metrics.metric_count == 1
        # The future shape lands in the events bucket, uncrashed.
        assert metrics.event_count == 1
        assert record_shape(FUTURE_RECORD) == "event"
        path = tmp_path / "trace.jsonl"
        with open(path, "w") as stream:
            for record in RECORDS:
                stream.write(json.dumps(record) + "\n")
        assert fold_file(str(path)).record_count == len(RECORDS)
        render_markdown(metrics)  # must not raise

    def test_counters_still_fold(self):
        assert fold(RECORDS).metrics.counters() == {"dataset.cache.hits": 1}


class TestWatch:
    def test_feed_all_ignores_unknown_kinds(self):
        watch = TraceWatch()
        watch.feed_all(RECORDS)
        assert watch.records == len(RECORDS)
        watch.render(now=106.0)  # must not raise


class TestPhaseTimings:
    def test_from_spans_skips_records_without_seconds(self):
        timings = PhaseTimings.from_spans(RECORDS)
        assert timings.setup_seconds == 1.0
        assert timings.total_seconds == 5.0
