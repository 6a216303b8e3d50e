"""Acceptance: the watch view reconstructs live progress from the
trace file alone — for a campaign run, an adaptive run, and the
distributed service with real worker subprocesses."""

import os
import subprocess
import sys

import pytest

from repro.campaign import CampaignSpec, run_campaign
from repro.pipeline import SynthesisPipeline
from repro.trace import fold_file, read_trace, record_shape, render_once

pytestmark = pytest.mark.trace

_SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))


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


class TestServiceTrace:
    def test_watch_renders_jobs_and_workers_from_a_real_service_run(
        self, tmp_path
    ):
        root = str(tmp_path / "svc")
        queue_dir = os.path.join(root, "queue")
        trace_path = os.path.join(root, "trace.jsonl")
        env = dict(os.environ)
        env["PYTHONPATH"] = _SRC + os.pathsep + env.get("PYTHONPATH", "")

        def cli(*args):
            return subprocess.Popen(
                [sys.executable, "-m", "repro.experiments.cli", *args],
                env=env, stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT, text=True,
            )

        serve = cli(
            "serve", "--service-root", root, "--executor", "workqueue",
            "--max-requests", "1", "--idle-timeout", "120",
            "--shard-size", "15", "--poll", "0.05",
        )
        # --trace points the worker at the broker's file: one shared
        # JSONL interleaving broker and worker processes.
        worker = cli(
            "service", "worker", "--queue-dir", queue_dir,
            "--worker-id", "tracee", "--idle-timeout", "60",
            "--trace", trace_path,
        )
        try:
            submit = cli(
                "submit", "--service-root", root, "--core", "ibex",
                "--solver", "greedy", "--count", "60", "--wait", "120",
            )
            output, _ = submit.communicate(timeout=150)
            assert submit.returncode == 0, output
        finally:
            worker.kill()
            serve.kill()

        frame = render_once(trace_path, now=1e12)
        # Queue progress, the worker's identity, and the request all
        # reconstructed from the one shared file.
        assert "queue:" in frame and " done," in frame
        assert "tracee" in frame
        assert "service: 1 request(s) seen, 1 ticket(s) issued" in frame
        metrics = fold_file(trace_path)
        assert metrics.summary("execute").count >= 1
        kinds = _event_kinds(trace_path)
        assert {"request", "enqueue", "claim", "done", "worker-start"} <= kinds
