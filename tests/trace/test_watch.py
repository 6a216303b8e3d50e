"""The live watch view: incremental tailing and the rendered frame."""

import io
import json

import pytest

from repro.trace import TraceTail, TraceWatch, render_once, watch

pytestmark = pytest.mark.trace


class TestTraceTail:
    def test_buffers_a_torn_final_line_until_the_newline_arrives(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tail = TraceTail(path)
        assert tail.poll() == []  # file does not exist yet
        with open(path, "w") as stream:
            stream.write('{"ts": 1.0, "kind": "a"}\n{"ts": 2.0, "ki')
        records = tail.poll()
        assert [record["kind"] for record in records] == ["a"]
        with open(path, "a") as stream:
            stream.write('nd": "b"}\n')
        assert [record["kind"] for record in tail.poll()] == ["b"]
        assert tail.poll() == []

    def test_skips_unparseable_complete_lines(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with open(path, "w") as stream:
            stream.write('not json\n{"ts": 1.0, "kind": "a"}\n')
        assert [r["kind"] for r in TraceTail(path).poll()] == ["a"]


def _feed_scenario(state):
    """One interleaved campaign + adaptive + pool trace, fixed
    timestamps so the frame is a golden."""
    records = [
        {"ts": 100.0, "pid": 1, "kind": "campaign-start", "campaign": "grid",
         "cells": 4},
        {"ts": 110.0, "start_ts": 105.0, "pid": 1, "kind": "cell",
         "seconds": 5.0, "ok": True, "cell": "core=ibex budget=500",
         "atoms": 3},
        {"ts": 110.5, "pid": 1, "kind": "cell-resumed",
         "cell": "core=ibex budget=30"},
        {"ts": 111.0, "start_ts": 110.0, "pid": 1, "kind": "round",
         "seconds": 1.0, "ok": True, "round": 2, "cumulative_cases": 400,
         "atom_coverage": 0.5, "contract_size": 7,
         "stop_reason": "contract-stable"},
        {"ts": 123.0, "start_ts": 123.0, "pid": 2, "kind": "shard",
         "source": "pipeline", "start_id": 30, "count": 15},
        {"ts": 123.5, "pid": 1, "kind": "failure", "failure": "shard",
         "error": "boom", "attempts": 2},
        {"ts": 124.0, "start_ts": 120.0, "pid": 1, "kind": "phase",
         "seconds": 4.0, "ok": True, "phase": "evaluate"},
    ]
    state.feed_all(records)
    return records


GOLDEN_FRAME = """\
watch — 7 records, 1 in-flight span(s)
campaign grid: 2/4 cells done (1 resumed, 0 failed)
  last cell: core=ibex budget=500 (5.000s)
adaptive: round 2 — 400 cases, 50.0% coverage, 7-atom contract [contract-stable]
failures: 1 (retries/timeouts/quarantines)
  in-flight: shard [pipeline] start_id=30 (7.0s)
last phase: evaluate 4.000s ok"""


class TestTraceWatch:
    def test_golden_frame_over_an_interleaved_scenario(self):
        state = TraceWatch()
        _feed_scenario(state)
        assert state.render(now=130.0) == GOLDEN_FRAME

    def test_span_end_clears_the_in_flight_entry(self):
        state = TraceWatch()
        begin = {"ts": 1.0, "start_ts": 1.0, "pid": 9, "kind": "shard",
                 "start_id": 0}
        state.feed(begin)
        assert len(state.in_flight) == 1
        end = dict(begin, ts=2.0, seconds=1.0, ok=True)
        state.feed(end)
        assert state.in_flight == {}
        assert state.shards_done == 1

    def test_failed_cell_counts_as_failed_not_done(self):
        state = TraceWatch()
        state.feed({"ts": 2.0, "start_ts": 1.0, "pid": 1, "kind": "cell",
                    "seconds": 1.0, "ok": False, "cell": "c"})
        assert state.cells_failed == 1 and state.cells_done == 0
        assert ", FAILED" in state.render(now=3.0)


class TestWatchLoop:
    def test_render_once_reads_the_file_snapshot(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with open(path, "w") as stream:
            for record in (
                {"ts": 1.0, "pid": 1, "kind": "shard-resumed", "start_id": 0},
            ):
                stream.write(json.dumps(record) + "\n")
        frame = render_once(path, now=2.0)
        assert "1 records" in frame
        assert "shards: 0 evaluated, 1 resumed" in frame

    def test_watch_streams_frames_and_returns_zero(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with open(path, "w") as stream:
            stream.write('{"ts": 1.0, "pid": 1, "kind": "campaign-start"}\n')
        stream = io.StringIO()
        assert watch(path, interval=0.0, stream=stream, max_frames=2) == 0
        assert stream.getvalue().count("watch %s" % path) == 2
