"""Folding a trace stream into summaries, detail tables, and text."""

import pytest

from repro.metrics.report import render_markdown
from repro.trace import fold, fold_file, span_group

pytestmark = pytest.mark.trace


def _end(kind, seconds, ok=True, **fields):
    record = {
        "ts": 100.0 + seconds,
        "start_ts": 100.0,
        "pid": 1,
        "kind": kind,
        "seconds": seconds,
        "ok": ok,
    }
    record.update(fields)
    return record


def _begin(kind, **fields):
    record = {"ts": 100.0, "start_ts": 100.0, "pid": 1, "kind": kind}
    record.update(fields)
    return record


RECORDS = [
    {"ts": 99.0, "pid": 1, "kind": "campaign-start", "campaign": "g", "cells": 2},
    _begin("phase", phase="evaluate"),
    _end("phase", 2.0, phase="evaluate"),
    _end("phase", 1.0, phase="synthesize"),
    _end("shard", 0.5, start_id=0),
    _end("shard", 1.5, ok=False, start_id=250),
    _end("cell", 3.0, cell="budget=500", atoms=4),
    _end(
        "round",
        0.25,
        round=1,
        cumulative_cases=200,
        atom_coverage=0.75,
        contract_size=5,
        stop_reason="contract-stable",
    ),
]


class TestSpanGroup:
    def test_phases_split_by_name_everything_else_by_kind(self):
        assert span_group(_end("phase", 1.0, phase="evaluate")) == "phase:evaluate"
        assert span_group(_end("shard", 1.0)) == "shard"


class TestFold:
    def test_partitions_spans_events_and_ignores_begin_records(self):
        metrics = fold(RECORDS)
        assert metrics.record_count == len(RECORDS)
        assert metrics.span_count == 6  # completed ends only
        assert metrics.event_count == 1  # campaign-start
        # the begin record is neither: its span lands via its end.

    def test_group_summaries_aggregate_count_total_max_and_failures(self):
        metrics = fold(RECORDS)
        shards = metrics.summary("shard")
        assert shards.count == 2
        assert shards.total_seconds == pytest.approx(2.0)
        assert shards.mean_seconds == pytest.approx(1.0)
        assert shards.max_seconds == pytest.approx(1.5)
        assert shards.failed == 1
        assert metrics.summary("phase:evaluate").count == 1
        assert metrics.summary("absent") is None

    def test_cells_rounds_and_slowest_are_ranked_detail_views(self):
        metrics = fold(RECORDS)
        assert [cell["cell"] for cell in metrics.cells()] == ["budget=500"]
        assert [r["round"] for r in metrics.rounds()] == [1]
        slowest = metrics.slowest(limit=2)
        assert [record["seconds"] for record in slowest] == [3.0, 2.0]

    def test_render_includes_every_section(self):
        text = render_markdown(fold(RECORDS))
        assert "Span summary (8 records: 6 spans, 1 events, 0 metric" in text
        assert "Campaign cells" in text
        assert "Adaptive rounds" in text
        assert "Slowest spans" in text
        assert "phase:evaluate" in text
        assert "contract-stable" in text

    def test_render_of_an_empty_stream_still_has_its_summary(self):
        text = render_markdown(fold([]))
        assert "Span summary (0 records" in text
        assert "*(empty)*" in text


class TestFoldFile:
    def test_fold_file_skips_torn_and_blank_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"ts": 1.0, "pid": 1, "kind": "request"}\n'
            "\n"
            '{"ts": 2.0, "start_ts": 1.0, "pid": 1, "kind": "shard", '
            '"seconds": 1.0, "ok": true}\n'
            '{"ts": 3.0, "kind": "torn'
        )
        metrics = fold_file(str(path))
        assert metrics.event_count == 1
        assert metrics.span_count == 1
