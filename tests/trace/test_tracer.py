"""Tracer record shapes: begin/end spans, events, rounding, children."""

import json
import os

import pytest

from repro.trace import Tracer

pytestmark = pytest.mark.trace


def _lines(path):
    with open(path) as stream:
        return [json.loads(line) for line in stream.read().splitlines() if line]


class TestSpanRecords:
    def test_span_emits_begin_and_end_both_carrying_start_ts(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(path, source="pipeline")
        with tracer.span("phase", phase="setup"):
            pass
        begin, end = _lines(path)
        # The begin record announces in-flight work: start_ts, no
        # seconds; ts equals start_ts at emission.
        assert begin["start_ts"] == begin["ts"]
        assert "seconds" not in begin
        assert begin["kind"] == "phase"
        assert begin["phase"] == "setup"
        assert begin["source"] == "pipeline"
        assert begin["pid"] == os.getpid()
        # The end record repeats start_ts (the watch matching key) and
        # adds the duration and outcome.
        assert end["start_ts"] == begin["start_ts"]
        assert end["seconds"] >= 0.0
        assert end["ok"] is True
        assert end["phase"] == "setup"

    def test_fields_added_inside_the_span_land_on_the_end_record_only(
        self, tmp_path
    ):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(path)
        with tracer.span("cell", cell="a") as span:
            span.add(atoms=7)
        begin, end = _lines(path)
        assert "atoms" not in begin
        assert end["atoms"] == 7

    def test_span_marks_ok_false_and_propagates_on_exception(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(path)
        with pytest.raises(ValueError):
            with tracer.span("phase", phase="evaluate"):
                raise ValueError("boom")
        _, end = _lines(path)
        assert end["ok"] is False

    def test_record_emits_an_end_only_span_with_back_dated_start_ts(
        self, tmp_path
    ):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(path)
        tracer.record("ilp-solve", 1.5)
        (record,) = _lines(path)
        assert record["seconds"] == 1.5
        assert record["ok"] is True
        assert record["ts"] - record["start_ts"] == pytest.approx(1.5, abs=1e-5)


class TestEvents:
    def test_event_records_have_no_start_ts(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        Tracer(path, source="serve").event("request", request="abc")
        (record,) = _lines(path)
        assert "start_ts" not in record
        assert record["kind"] == "request"
        assert record["request"] == "abc"
        assert record["source"] == "serve"


class TestEmission:
    def test_file_and_collector_get_the_same_rounded_floats(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        collector = []
        tracer = Tracer(path, collector=collector)
        value = 0.123456789012345
        tracer.event("x", value=value, flag=True)
        assert collector[0]["value"] == 0.123457
        (record,) = _lines(path)
        assert record["value"] == 0.123457
        assert collector[0]["flag"] is True
        # bools are not floats: ``round`` must never touch them.
        assert record["flag"] is True

    def test_collector_only_tracer_is_active_but_not_enabled(self, tmp_path):
        collector = []
        tracer = Tracer(None, collector=collector)
        assert tracer.active and not tracer.enabled
        tracer.event("x")
        with tracer.span("y"):
            pass
        assert len(collector) == 3

    def test_tracer_creates_missing_parent_directories(self, tmp_path):
        path = str(tmp_path / "deep" / "nested" / "trace.jsonl")
        Tracer(path).event("x")
        assert _lines(path)[0]["kind"] == "x"

    def test_child_shares_the_file_under_its_own_source_label(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        parent = Tracer(path, source="broker")
        child = parent.child("worker-1")
        parent.event("a")
        child.event("b")
        first, second = _lines(path)
        assert first["source"] == "broker"
        assert second["source"] == "worker-1"
