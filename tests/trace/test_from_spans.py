"""PhaseTimings as a projection of the span stream.

The field names and semantics predate the trace layer (Table III's
columns); these tests pin them so the projection can never drift from
what the old per-phase accumulators reported.
"""

import dataclasses

import pytest

from repro.pipeline import PhaseTimings, SynthesisPipeline
from repro.trace import read_trace

pytestmark = pytest.mark.trace


def _end(kind, seconds, **fields):
    record = {
        "ts": 0.0,
        "start_ts": 0.0,
        "pid": 1,
        "kind": kind,
        "seconds": seconds,
        "ok": True,
    }
    record.update(fields)
    return record


class TestProjection:
    def test_legacy_field_semantics_pinned_for_the_in_process_path(self):
        timings = PhaseTimings.from_spans(
            [
                {"ts": 0.0, "pid": 1, "kind": "campaign-start"},  # ignored
                {"ts": 0.0, "start_ts": 0.0, "pid": 1, "kind": "phase",
                 "phase": "setup"},  # begin record: ignored
                _end("phase", 0.25, phase="setup"),
                _end("phase", 2.0, phase="evaluate",
                     simulation_seconds=1.25, extraction_seconds=0.5),
                _end("phase", 1.0, phase="synthesize"),
                _end("phase", 0.125, phase="verify"),
                _end("ilp-solve", 0.9),  # profiling detail: not a phase
                _end("pipeline", 3.5),
            ]
        )
        assert timings == PhaseTimings(
            setup_seconds=0.25,
            evaluation_seconds=2.0,
            simulation_seconds=1.25,
            extraction_seconds=0.5,
            synthesis_seconds=1.0,
            verification_seconds=0.125,
            total_seconds=3.5,
        )

    def test_evaluate_span_carries_the_cache_and_executor_detail(self):
        cached = PhaseTimings.from_spans(
            [_end("phase", 0.0, phase="evaluate", cache_hit=True)]
        )
        assert cached.cache_hit is True
        sharded = PhaseTimings.from_spans(
            [
                _end("phase", 2.0, phase="evaluate", executor="multiprocess",
                     shards_total=8, shards_resumed=3, shards_quarantined=1,
                     executor_downgraded="serial"),
            ]
        )
        assert sharded.executor_name == "multiprocess"
        assert sharded.shards_total == 8
        assert sharded.shards_resumed == 3
        assert sharded.shards_quarantined == 1
        assert sharded.executor_downgraded == "serial"
        assert "executor multiprocess, 8 shards, 3 resumed" in sharded.render()


class TestRealRunEquivalence:
    def _run(self, trace_path=None):
        pipeline = SynthesisPipeline().budget(40, seed=1)
        if trace_path is not None:
            pipeline.trace(trace_path)
        return pipeline.run()

    def test_tracing_on_reports_the_same_run_shape_as_tracing_off(
        self, tmp_path
    ):
        baseline = self._run().timings
        traced = self._run(str(tmp_path / "trace.jsonl")).timings
        # Two separate runs cannot share wall clocks, but every
        # structural field must agree and every timer must be coherent.
        for field in dataclasses.fields(PhaseTimings):
            lhs = getattr(baseline, field.name)
            rhs = getattr(traced, field.name)
            if isinstance(lhs, float):
                assert (lhs > 0.0) == (rhs > 0.0), field.name
            else:
                assert lhs == rhs, field.name
        assert traced.total_seconds >= traced.synthesis_seconds

    def test_file_round_trip_reproduces_the_run_timings(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        result = self._run(path)
        projected = PhaseTimings.from_spans(read_trace(path))
        for field in dataclasses.fields(PhaseTimings):
            lhs = getattr(result.timings, field.name)
            rhs = getattr(projected, field.name)
            if isinstance(lhs, float):
                # Full precision in memory, 6-digit rounding on disk.
                assert rhs == pytest.approx(lhs, abs=1e-6), field.name
            else:
                assert lhs == rhs, field.name
        assert result.timings.render() == projected.render()
