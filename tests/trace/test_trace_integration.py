"""Acceptance: the watch view reconstructs live progress from the
trace file alone — for a campaign run and an adaptive run."""

import pytest

from repro.campaign import CampaignSpec, run_campaign
from repro.pipeline import SynthesisPipeline
from repro.trace import fold_file, read_trace, record_shape, render_once

pytestmark = pytest.mark.trace


def _event_kinds(trace_path):
    return {
        record["kind"]
        for record in read_trace(trace_path)
        if record_shape(record) == "event"
    }


class TestCampaignTrace:
    def test_watch_renders_cell_progress_from_the_trace_alone(self, tmp_path):
        trace_path = str(tmp_path / "trace.jsonl")
        spec = CampaignSpec(
            name="traced",
            cores=("ibex",),
            solvers=("greedy",),
            budgets=(20, 40),
            verify=0,
            trace_path=trace_path,
        )
        run_campaign(spec, results_dir=str(tmp_path / "results"))
        frame = render_once(trace_path, now=1e12)
        assert "campaign traced: 2/2 cells done (0 resumed, 0 failed)" in frame
        assert "last cell:" in frame
        metrics = fold_file(trace_path)
        assert metrics.summary("cell").count == 2
        assert _event_kinds(trace_path) >= {
            "campaign-start",
            "campaign-end",
        }
        # The cells ran inside per-cell pipelines sharing the file.
        assert metrics.summary("pipeline").count == 2
        assert metrics.summary("phase:synthesize").count == 2

    def test_resumed_cells_surface_in_the_frame(self, tmp_path):
        trace_path = str(tmp_path / "trace.jsonl")
        spec = CampaignSpec(
            name="resumed", cores=("ibex",), solvers=("greedy",),
            budgets=(20,), verify=0, trace_path=trace_path,
        )
        manifest = str(tmp_path / "manifest.jsonl")
        run_campaign(spec, results_dir=str(tmp_path / "results"),
                     manifest=manifest)
        run_campaign(spec, results_dir=str(tmp_path / "results"),
                     manifest=manifest, resume=True)
        frame = render_once(trace_path, now=1e12)
        assert "(1 resumed, 0 failed)" in frame


class TestAdaptiveTrace:
    def test_watch_renders_round_progress(self, tmp_path):
        trace_path = str(tmp_path / "trace.jsonl")
        (
            SynthesisPipeline()
            .solver("greedy")
            .budget(60, seed=0)
            .adaptive(rounds=3, batch=20, stop="budget")
            .trace(trace_path)
            .run()
        )
        frame = render_once(trace_path, now=1e12)
        assert "adaptive: round " in frame
        assert "% coverage" in frame
        metrics = fold_file(trace_path)
        assert metrics.summary("round").count == 3
        for record in metrics.rounds():
            assert "cumulative_cases" in record and "atom_coverage" in record


class TestShardTrace:
    def test_default_run_writes_the_serial_executor_shard_spans(self, tmp_path):
        """A run without an executor goes through the same shard loop,
        so its trace carries the same ``shard`` spans.  Pool workers
        append a span when their shard ends, so the file holds them in
        completion order."""

        def shard_spans(executor, name):
            path = str(tmp_path / name)
            (
                SynthesisPipeline()
                .solver("greedy")
                .budget(45, seed=1)
                .executor(executor, shard_size=20)
                .trace(path)
                .run()
            )
            return [
                (record["start_id"], record["count"], record["ok"])
                for record in read_trace(path)
                if record.get("kind") == "shard" and "seconds" in record
            ]

        default = sorted(shard_spans(None, "default.jsonl"))
        assert default == [(0, 20, True), (20, 20, True), (40, 5, True)]
        assert default == shard_spans("serial", "serial.jsonl")
