"""Tests for the repro-synthesize command-line interface."""

import pytest

from repro.experiments.cli import _build_parser, main


def test_parser_accepts_experiments():
    parser = _build_parser()
    for name in ("fig2", "fig3", "table1", "table2", "table3", "all"):
        arguments = parser.parse_args([name])
        assert arguments.command == name


def test_parser_rejects_unknown():
    parser = _build_parser()
    with pytest.raises(SystemExit):
        parser.parse_args(["table9"])


def test_parser_options():
    parser = _build_parser()
    arguments = parser.parse_args(
        ["fig2", "--scale", "0.5", "--results-dir", "/tmp/x", "--no-cache"]
    )
    assert arguments.scale == 0.5
    assert arguments.results_dir == "/tmp/x"
    assert arguments.no_cache


def test_parser_accepts_plugin_flags():
    parser = _build_parser()
    arguments = parser.parse_args(
        [
            "run",
            "--core",
            "cva6",
            "--attacker",
            "cache-state",
            "--solver",
            "greedy",
            "--template",
            "riscv-rv32im",
            "--restrict",
            "base",
            "--count",
            "42",
            "--seed",
            "7",
        ]
    )
    assert arguments.command == "run"
    assert arguments.core == "cva6"
    assert arguments.attacker == "cache-state"
    assert arguments.solver == "greedy"
    assert arguments.template == "riscv-rv32im"
    assert arguments.restrict == "base"
    assert arguments.count == 42
    assert arguments.seed == 7


def test_parser_accepts_executor_flags():
    parser = _build_parser()
    arguments = parser.parse_args(
        [
            "run",
            "--executor",
            "multiprocess",
            "--processes",
            "4",
            "--shard-size",
            "100",
            "--resume",
            "/tmp/run.shards.jsonl",
        ]
    )
    assert arguments.executor == "multiprocess"
    assert arguments.processes == 4
    assert arguments.shard_size == 100
    assert arguments.resume == "/tmp/run.shards.jsonl"
    # Bare --resume derives the manifest from the dataset cache key.
    bare = parser.parse_args(["run", "--resume"])
    assert bare.resume is True
    assert parser.parse_args(["run"]).resume is None


@pytest.mark.pipeline
def test_main_list_prints_registries(capsys):
    assert main(["list"]) == 0
    output = capsys.readouterr().out
    sections = (
        "cores:",
        "attackers:",
        "solvers:",
        "templates:",
        "restrictions:",
        "executors:",
    )
    for section in sections:
        assert section in output
    names = (
        "ibex",
        "cva6",
        "retirement-timing",
        "cache-state",
        "scipy-milp",
        "serial",
        "multiprocess",
        "workqueue",
    )
    for name in names:
        assert name in output
    assert "fastpath-modes" not in output
    assert "futures" not in output and "threaded" not in output


def test_main_run_rejects_a_removed_executor(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--executor", "threaded"])
    assert exit_info.value.code != 0
    error = capsys.readouterr().err
    assert "threaded" in error
    for name in ("serial", "multiprocess", "workqueue"):
        assert name in error


def test_main_run_rejects_the_removed_fastpath_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["run", "--fastpath", "batch"])
    assert exit_info.value.code != 0
    assert "--fastpath" in capsys.readouterr().err


@pytest.mark.pipeline
def test_main_run_ad_hoc_pipeline(tmp_path, capsys):
    exit_code = main(
        [
            "run",
            "--core",
            "ibex",
            "--attacker",
            "retirement-timing",
            "--solver",
            "greedy",
            "--count",
            "40",
            "--seed",
            "5",
            "--no-cache",
            "--results-dir",
            str(tmp_path / "results"),
        ]
    )
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "pipeline: core=ibex attacker=retirement-timing solver=greedy" in output
    assert "contract:" in output and "timings:" in output


@pytest.mark.pipeline
def test_main_run_with_executor_and_resume(tmp_path, capsys):
    """The acceptance scenario: an executor-backed run checkpoints its
    shards, and the same invocation resumes from them."""
    results_dir = str(tmp_path / "results")
    argv = [
        "run",
        "--core",
        "ibex",
        "--solver",
        "greedy",
        "--count",
        "40",
        "--executor",
        "serial",
        "--shard-size",
        "10",
        "--resume",
        "--results-dir",
        results_dir,
    ]
    assert main(argv) == 0
    output = capsys.readouterr().out
    assert "executor serial" in output

    # Second invocation: the dataset cache is warm, so the run is a
    # cache hit; the manifest stays on disk for budget extensions.
    assert main(argv) == 0
    output = capsys.readouterr().out
    assert "(cached)" in output

    # Both completed runs landed in the run-history index.
    from repro.metrics import load_runs

    runs = load_runs(results_dir)
    assert len(runs) == 2
    assert all(run["kind"] == "pipeline" for run in runs)


@pytest.mark.pipeline
def test_main_run_cva6_cache_state(tmp_path, capsys):
    """The README/acceptance scenario: an ad-hoc cross-plugin pipeline
    completes end-to-end."""
    exit_code = main(
        ["run", "--core", "cva6", "--attacker", "cache-state",
         "--count", "30", "--no-cache",
         "--results-dir", str(tmp_path / "results")]
    )
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "pipeline: core=cva6 attacker=cache-state" in output


@pytest.mark.slow
def test_main_runs_table3(tmp_path, capsys):
    exit_code = main(
        ["table3", "--scale", "0.05", "--results-dir", str(tmp_path / "out")]
    )
    assert exit_code == 0
    output = capsys.readouterr().out
    assert "Table III" in output
    assert (tmp_path / "out" / "table3_runtime.txt").exists()


def test_parser_accepts_campaign_flags():
    parser = _build_parser()
    arguments = parser.parse_args(
        [
            "campaign",
            "run",
            "--core",
            "ibex,cva6",
            "--budgets",
            "100,200",
            "--seeds",
            "0,1",
            "--campaign-name",
            "sweep",
            "--filter",
            "core=ibex",
            "--filter",
            "budget=100",
        ]
    )
    assert arguments.command == "campaign"
    assert arguments.action == "run"
    assert arguments.core == "ibex,cva6"
    assert arguments.budgets == "100,200"
    assert arguments.seeds == "0,1"
    assert arguments.campaign_name == "sweep"
    assert arguments.filters == ["core=ibex", "budget=100"]
    # The action defaults to None (campaign treats that as 'run').
    assert parser.parse_args(["campaign"]).action is None


@pytest.mark.campaign
@pytest.mark.parametrize(
    "argv", [["campaign", "run"], ["serve", "--service-root", "service"]]
)
def test_cells_run_one_at_a_time_without_a_concurrency_flag(argv, capsys):
    """Campaign cells run one at a time: neither ``campaign`` nor
    ``serve`` takes a concurrent-cells flag."""
    with pytest.raises(SystemExit) as exit_info:
        _build_parser().parse_args(argv + ["--max-parallel-cells", "2"])
    assert exit_info.value.code == 2
    assert "--max-parallel-cells" in capsys.readouterr().err


@pytest.mark.pipeline
def test_main_list_filters_to_one_registry(capsys):
    """Registries are individually discoverable: 'list templates'
    prints the template registry and nothing else."""
    assert main(["list", "templates"]) == 0
    output = capsys.readouterr().out
    assert "templates:" in output and "riscv-rv32im" in output
    assert "cores:" not in output and "executors:" not in output

    assert main(["list", "restrictions"]) == 0
    output = capsys.readouterr().out
    assert "restrictions:" in output and "IL+RL+ML" in output

    with pytest.raises(SystemExit) as exit_info:
        main(["list", "gadgets"])
    assert exit_info.value.code == 2
    error = capsys.readouterr().err
    assert "gadgets" in error
    for name in ("cores", "templates", "executors", "faults"):
        assert name in error


@pytest.mark.campaign
def test_main_campaign_run_status_report(tmp_path, capsys):
    """The acceptance scenario end-to-end from the command line: run a
    grid, inspect its status, re-report from the manifest alone."""
    results_dir = str(tmp_path / "results")
    grid = [
        "--core",
        "ibex,ibex-dcache",
        "--budgets",
        "15,30",
        "--solver",
        "greedy",
        "--verify",
        "0",
        "--campaign-name",
        "clitest",
        "--results-dir",
        results_dir,
    ]
    assert main(["campaign", "run"] + grid) == 0
    output = capsys.readouterr().out
    assert "Campaign 'clitest'" in output
    assert "4 cells (0 resumed)" in output
    assert (tmp_path / "results" / "campaign_clitest.txt").exists()

    assert main(["campaign", "status"] + grid + ["--resume"]) == 0
    output = capsys.readouterr().out
    assert "4/4 cells completed" in output

    assert main(["campaign", "report"] + grid + ["--resume"]) == 0
    output = capsys.readouterr().out
    assert "4 cells (4 resumed)" in output

    # --resume reuses every completed cell on a re-run.
    assert main(["campaign", "run", "--resume"] + grid) == 0
    output = capsys.readouterr().out
    assert "4 cells (4 resumed)" in output


@pytest.mark.campaign
def test_main_campaign_filter_runs_a_slice(tmp_path, capsys):
    results_dir = str(tmp_path / "results")
    argv = [
        "campaign",
        "run",
        "--core",
        "ibex,ibex-dcache",
        "--budgets",
        "10",
        "--solver",
        "greedy",
        "--verify",
        "0",
        "--results-dir",
        results_dir,
        "--filter",
        "core=ibex",
    ]
    assert main(argv) == 0
    output = capsys.readouterr().out
    assert "1 cells (0 resumed)" in output
    assert "ibex-dcache" not in output.split("Campaign")[1]


def test_main_campaign_rejects_bad_action_and_filter(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["campaign", "destroy"])
    assert exit_info.value.code == 2
    error = capsys.readouterr().err
    assert "destroy" in error
    for action in ("run", "status", "report"):
        assert action in error
    with pytest.raises(SystemExit, match="bad --filter"):
        main(["campaign", "run", "--filter", "velocity=9"])


def test_parser_accepts_service_flags():
    parser = _build_parser()
    arguments = parser.parse_args(
        [
            "service",
            "worker",
            "--queue-dir",
            "/tmp/q",
            "--worker-id",
            "w1",
            "--lease",
            "10",
            "--poll",
            "0.1",
            "--max-jobs",
            "3",
            "--idle-timeout",
            "5",
            "--failure-log",
            "/tmp/f.jsonl",
            "--fault",
            "shard-crash",
            "--fault-state",
            '{"start_id": 0}',
        ]
    )
    assert arguments.command == "service"
    assert arguments.action == "worker"
    assert arguments.queue_dir == "/tmp/q"
    assert arguments.worker_id == "w1"
    assert arguments.lease == 10.0
    assert arguments.max_jobs == 3
    serve = parser.parse_args(
        ["serve", "--service-root", "/tmp/svc", "--executor", "workqueue",
         "--embedded-workers", "2", "--max-requests", "1"]
    )
    assert serve.service_root == "/tmp/svc"
    assert serve.embedded_workers == 2
    submit = parser.parse_args(["submit", "--count", "50", "--wait", "30"])
    assert submit.wait == 30.0


@pytest.mark.service
def test_main_list_executors_includes_workqueue(capsys):
    assert main(["list", "executors"]) == 0
    output = capsys.readouterr().out
    assert "workqueue" in output
    assert "service worker" in output


@pytest.mark.service
def test_main_workqueue_without_broker_fails_actionably(monkeypatch):
    monkeypatch.delenv("REPRO_QUEUE_DIR", raising=False)
    with pytest.raises(SystemExit, match="REPRO_QUEUE_DIR"):
        main(["run", "--executor", "workqueue", "--count", "10", "--no-cache"])
    with pytest.raises(SystemExit, match="REPRO_QUEUE_DIR"):
        main(["campaign", "run", "--executor", "workqueue", "--budgets", "10"])
    with pytest.raises(SystemExit, match="REPRO_QUEUE_DIR"):
        main(["fig2", "--executor", "workqueue"])
    with pytest.raises(SystemExit, match="queue directory"):
        main(["service", "worker"])


@pytest.mark.service
def test_main_run_on_workqueue_with_embedded_workers(tmp_path, capsys):
    argv = [
        "run",
        "--core",
        "ibex",
        "--solver",
        "greedy",
        "--count",
        "30",
        "--executor",
        "workqueue",
        "--queue-dir",
        str(tmp_path / "q"),
        "--embedded-workers",
        "1",
        "--shard-size",
        "10",
        "--no-cache",
        "--results-dir",
        str(tmp_path / "results"),
    ]
    assert main(argv) == 0
    output = capsys.readouterr().out
    assert "pipeline: core=ibex" in output


@pytest.mark.service
def test_main_submit_serve_status_round_trip(tmp_path, capsys):
    root = str(tmp_path / "svc")
    submit = [
        "submit",
        "--service-root",
        root,
        "--core",
        "ibex",
        "--solver",
        "greedy",
        "--count",
        "30",
    ]
    assert main(submit) == 0
    request_id = capsys.readouterr().out.split()[1]

    serve = ["serve", "--service-root", root, "--max-requests", "1", "--poll", "0.01"]
    assert main(serve) == 0
    capsys.readouterr()

    assert main(["status", "--service-root", root]) == 0
    assert "done" in capsys.readouterr().out

    assert main(["status", request_id, "--service-root", root]) == 0
    assert "Ticket %s" % request_id in capsys.readouterr().out

    # Submitting again hits the finished ticket; --wait returns at once.
    assert main(submit + ["--wait", "5"]) == 0
    assert "from store" in capsys.readouterr().out

    with pytest.raises(SystemExit, match="no finished ticket"):
        main(["status", "nonexistent", "--service-root", root])


@pytest.fixture(scope="module")
def recorded_runs(tmp_path_factory):
    """Two tiny traced ``run`` invocations: one trace file and a
    two-entry run history for the commands that read them back."""
    root = tmp_path_factory.mktemp("recorded")
    results_dir = str(root / "results")
    trace = str(root / "trace.jsonl")
    run = ["run", "--solver", "greedy", "--no-cache", "--results-dir", results_dir]
    for count in ("20", "30"):
        assert main(run + ["--count", count, "--trace", trace]) == 0
    return results_dir, trace


@pytest.mark.trace
def test_main_report_renders_markdown_and_html(recorded_runs, tmp_path, capsys):
    _results_dir, trace = recorded_runs
    capsys.readouterr()
    assert main(["report", "--trace", trace]) == 0
    assert "Run report: %s" % trace in capsys.readouterr().out

    output = str(tmp_path / "run.html")
    argv = ["report", "--trace", trace, "--format", "html", "--output", output]
    assert main(argv) == 0
    assert "report written to %s" % output in capsys.readouterr().out
    with open(output) as stream:
        assert "<html" in stream.read()

    with pytest.raises(SystemExit, match="unknown report format"):
        main(["report", "--trace", trace, "--format", "pdf"])


@pytest.mark.trace
def test_main_trace_export_writes_chrome_json(recorded_runs, tmp_path, capsys):
    import json

    _results_dir, trace = recorded_runs
    capsys.readouterr()
    output = str(tmp_path / "run.chrome.json")
    argv = ["trace", "export", "--trace", trace, "--output", output]
    assert main(argv) == 0
    assert "trace event(s) to %s" % output in capsys.readouterr().out
    with open(output) as stream:
        assert json.load(stream)["traceEvents"]


@pytest.mark.trace
def test_main_runs_list_and_diff(recorded_runs, capsys):
    results_dir, _trace = recorded_runs
    capsys.readouterr()
    assert main(["runs", "list", "--results-dir", results_dir]) == 0
    assert "Run history (2 runs)" in capsys.readouterr().out

    from repro.metrics import load_runs

    first, second = (run["id"] for run in load_runs(results_dir))
    # Negative indices are positionals, not options.
    diff = ["runs", "diff", "-2", "-1", "--results-dir", results_dir]
    assert main(diff + ["--threshold", "1e9"]) == 0
    output = capsys.readouterr().out
    assert "Run diff: %s -> %s" % (first, second) in output
    assert "no regressions flagged" in output

    with pytest.raises(SystemExit, match="exactly two runs"):
        main(["runs", "diff", "-1", "--results-dir", results_dir])


@pytest.mark.trace
def test_main_watch_once_renders_one_frame(recorded_runs, capsys):
    _results_dir, trace = recorded_runs
    capsys.readouterr()
    assert main(["watch", "--trace", trace, "--once"]) == 0
    assert "watch %s" % trace in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--processes", "--shard-size"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_parser_rejects_non_positive_pool_sizes(flag, value, capsys):
    with pytest.raises(SystemExit) as exit_info:
        _build_parser().parse_args(["run", flag, value])
    assert exit_info.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.pipeline
@pytest.mark.parametrize("flag", ["--adaptive-rounds", "--batch"])
def test_parser_rejects_an_empty_round_plan(flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        _build_parser().parse_args(["run", flag, "0"])
    assert exit_info.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["watch", "--count", "5", "--once"],
        ["table1", "--core", "cva6", "--generator", "coverage"],
        ["report", "--trace", "t", "--budgets", "1,2"],
        ["run", "fig2", "extra"],
        ["fig2", "table1"],
        ["list", "templates", "--scale", "9"],
    ],
    ids=" ".join,
)
def test_parser_rejects_flags_the_command_does_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        _build_parser().parse_args(argv)
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _documented_commands():
    """Every ``repro-synthesize ...`` / ``python -m repro.experiments.cli
    ...`` command in README.md and the examples' docstrings, as argv
    lists (continuations joined, trailing ``&`` and comments dropped)."""
    import ast
    import pathlib
    import re
    import shlex

    root = pathlib.Path(__file__).resolve().parents[2]
    texts = [(root / "README.md").read_text()]
    documented = (ast.Module, ast.ClassDef, ast.FunctionDef)
    for path in sorted((root / "examples").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, documented):
                texts.append(ast.get_docstring(node) or "")
    pattern = re.compile(
        r"(?:repro-synthesize|python -m repro\.experiments\.cli)\b([^`\n]*)"
    )
    commands = []
    for text in texts:
        for match in pattern.finditer(re.sub(r"\\\n\s*", " ", text)):
            line = match.group(1).split(" #")[0].strip()
            commands.append(shlex.split(line.rstrip("&")))
    return commands


def test_documented_commands_parse(capsys):
    commands = _documented_commands()
    assert len(commands) >= 30
    parser = _build_parser()
    rejected = []
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            rejected.append((argv, capsys.readouterr().err))
    assert not rejected
