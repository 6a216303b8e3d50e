"""End-to-end tests for the campaign runner: grid execution,
cell-granularity kill/resume, and cross-cell dataset-cache reuse.

These are the ``campaign``-marked CI smoke suite
(``pytest -m campaign``): tiny budgets, every feature exercised.
"""

import os

import pytest

import repro.pipeline.pipeline as pipeline_module
from repro.campaign import CampaignRunner, CampaignSpec, run_campaign
from repro.metrics.runs import load_runs
from repro.pipeline import SynthesisPipeline
from repro.trace.tracer import read_trace

pytestmark = pytest.mark.campaign


def _spec(**overrides):
    settings = dict(
        name="test-sweep",
        cores=("ibex",),
        solvers=("greedy",),
        budgets=(30,),
        verify=0,
    )
    settings.update(overrides)
    return CampaignSpec(**settings)


class _GeneratorCounter:
    """Counts evaluation-stack constructions inside the pipeline — one
    per dataset actually generated, zero on cache hits."""

    def __init__(self, monkeypatch):
        self.count = 0
        original = pipeline_module.SynthesisPipeline.resolve_generator

        def counting(pipeline, template):
            self.count += 1
            return original(pipeline, template)

        monkeypatch.setattr(
            pipeline_module.SynthesisPipeline, "resolve_generator", counting
        )


class TestGridExecution:
    def test_two_by_two_grid_completes(self, tmp_path):
        """The acceptance grid: 2 cores x 2 attackers x 2 budgets."""
        spec = _spec(
            cores=("ibex", "ibex-dcache"),
            attackers=("retirement-timing", "total-time"),
            budgets=(20, 40),
        )
        result = run_campaign(spec, results_dir=str(tmp_path))
        assert len(result.outcomes) == 8
        # Result order is plan order regardless of execution order.
        assert [o.cell.budget for o in result.outcomes[:2]] == [20, 40]
        assert all(o.atom_count > 0 for o in result.outcomes)
        assert os.path.exists(result.manifest_path)
        table = result.render()
        for column in ("core", "attacker", "budget", "atoms"):
            assert column in table
        # Single-valued axes (template, solver, seed) are not columns.
        assert "solver" not in table.splitlines()[1]

    def test_outcomes_match_standalone_pipelines(self, tmp_path):
        spec = _spec(cores=("ibex",), budgets=(25,), seeds=(3,))
        result = run_campaign(spec, results_dir=str(tmp_path))
        standalone = (
            SynthesisPipeline()
            .core("ibex")
            .solver("greedy")
            .budget(25, 3)
            .verify(0)
            .run()
        )
        assert result.outcomes[0].atom_ids == tuple(
            sorted(standalone.contract.atom_ids)
        )

    def test_adaptive_cells_sweep_like_any_other(self, tmp_path):
        """A generators-axis campaign with adaptive cells: outcomes
        match the standalone adaptive pipeline, and the generator
        becomes a comparison column."""
        spec = _spec(
            cores=("ibex-dcache",),
            attackers=("cache-state",),
            templates=("riscv-mem",),
            generators=("random", "coverage"),
            budgets=(120,),
            seeds=(7,),
            adaptive_rounds=3,
        )
        result = run_campaign(spec, results_dir=str(tmp_path))
        assert len(result.outcomes) == 2
        standalone = (
            SynthesisPipeline()
            .core("ibex-dcache")
            .attacker("cache-state")
            .template("riscv-mem")
            .solver("greedy")
            .budget(120, 7)
            .adaptive(generator="coverage", rounds=3, batch=40)
            .verify(0)
            .run()
        )
        coverage_outcome = result.outcome(generator="coverage")
        assert coverage_outcome.atom_ids == tuple(
            sorted(standalone.contract.atom_ids)
        )
        assert coverage_outcome.test_cases == len(standalone.dataset)
        assert "generator" in result.comparison_table()
        # Adaptive cells resume at cell granularity like any other.
        resumed = run_campaign(spec, results_dir=str(tmp_path))
        assert resumed.resumed_count == 2

    @pytest.mark.parametrize("processes, expected", [(None, 4), (1, 1), (3, 3)])
    def test_every_cell_gets_the_run_processes(
        self, tmp_path, monkeypatch, processes, expected
    ):
        """Cells run one at a time, so each cell's pool gets the run's
        whole ``processes`` setting (default: the usable CPUs), not a
        share of it."""
        import repro.evaluation.backends.executors as executors_module

        monkeypatch.setattr(executors_module, "usable_cpus", lambda: 4)
        sizes = []
        original = pipeline_module.ForkPool

        def recording(workers, *args, **kwargs):
            sizes.append(workers)
            return original(workers, *args, **kwargs)

        monkeypatch.setattr(pipeline_module, "ForkPool", recording)
        run_campaign(
            _spec(cores=("ibex", "ibex-dcache"), budgets=(10,)),
            results_dir=str(tmp_path),
            processes=processes,
        )
        assert sizes == [expected, expected]

    @pytest.mark.parametrize("processes", [0, -1])
    def test_processes_below_one_is_rejected(self, tmp_path, processes):
        with pytest.raises(ValueError, match="processes must be at least 1"):
            CampaignRunner(_spec(), results_dir=str(tmp_path), processes=processes)

    def test_filters_restrict_the_plan(self, tmp_path):
        runner = CampaignRunner(
            _spec(cores=("ibex", "ibex-dcache"), budgets=(10, 20)),
            results_dir=str(tmp_path),
            filters={"core": "ibex", "budget": "20"},
        )
        assert [cell.label() for cell in runner.cells()] == [
            "core=ibex attacker=retirement-timing template=riscv-rv32im "
            "restrict=- solver=greedy budget=20 seed=0"
        ]
        with pytest.raises(ValueError, match="match none"):
            CampaignRunner(
                _spec(), results_dir=str(tmp_path), filters={"core": "cva6"}
            ).cells()


class TestKillResume:
    def test_killed_campaign_resumes_at_cell_granularity(self, tmp_path):
        """A campaign killed after two cells keeps them; the resumed
        run re-executes only the other two and reproduces a fresh
        run's outcomes exactly."""
        spec = _spec(cores=("ibex", "ibex-dcache"), budgets=(10, 20))

        class Killed(Exception):
            pass

        def kill_after_two(event):
            if event.completed_cells == 2:
                raise Killed()

        with pytest.raises(Killed):
            run_campaign(spec, results_dir=str(tmp_path), progress=kill_after_two)

        events = []
        resumed = run_campaign(spec, results_dir=str(tmp_path), progress=events.append)
        assert [event.resumed for event in events] == [True, True, False, False]
        assert resumed.resumed_count == 2

        fresh = run_campaign(spec, results_dir=str(tmp_path / "fresh"))
        assert [o.atom_ids for o in resumed.outcomes] == [
            o.atom_ids for o in fresh.outcomes
        ]

    def test_cell_failure_keeps_completed_cells(self, tmp_path, monkeypatch):
        """A cell that raises out of its run stops the campaign, but the
        cells completed before it stay checkpointed for the resume."""
        spec = _spec(budgets=(20, 40))  # runs the 40-case cell first
        runner = CampaignRunner(spec, results_dir=str(tmp_path))
        original = runner._execute

        def flaky(cell):
            if cell.budget == 20:
                raise RuntimeError("boom")
            return original(cell)

        monkeypatch.setattr(runner, "_execute", flaky)
        with pytest.raises(RuntimeError, match="boom"):
            runner.run()
        status = CampaignRunner(spec, results_dir=str(tmp_path)).status()
        assert [cell.budget for cell in status.completed] == [40]
        assert [cell.budget for cell in status.pending] == [20]
        resumed = run_campaign(spec, results_dir=str(tmp_path))
        assert resumed.resumed_count == 1

    def test_resume_false_reexecutes_every_cell(self, tmp_path):
        spec = _spec(budgets=(10, 20))
        run_campaign(spec, results_dir=str(tmp_path))
        events = []
        run_campaign(
            spec, results_dir=str(tmp_path), resume=False, progress=events.append
        )
        assert [event.resumed for event in events] == [False, False]

    def test_status_reports_completed_and_pending(self, tmp_path):
        spec = _spec(cores=("ibex", "ibex-dcache"), budgets=(10,))
        runner = CampaignRunner(
            spec, results_dir=str(tmp_path), filters={"core": "ibex"}
        )
        runner.run()
        status = CampaignRunner(spec, results_dir=str(tmp_path)).status()
        assert len(status.completed) == 1 and len(status.pending) == 1
        assert status.completed[0].core == "ibex"
        assert "1/2 cells completed" in status.render()

    def test_report_reads_only_the_manifest(self, tmp_path):
        spec = _spec(budgets=(10, 20))
        executed = run_campaign(spec, results_dir=str(tmp_path))
        report = CampaignRunner(spec, results_dir=str(tmp_path)).report()
        assert [o.atom_ids for o in report.outcomes] == [
            o.atom_ids for o in executed.outcomes
        ]
        assert all(o.resumed for o in report.outcomes)


class TestDatasetReuse:
    def test_shared_key_second_cell_does_zero_generation_work(
        self, tmp_path, monkeypatch
    ):
        """Two cells differing only in a synthesis axis (solver) share
        one dataset cache entry: exactly one generation happens."""
        counter = _GeneratorCounter(monkeypatch)
        spec = _spec(solvers=("greedy", "branch-and-bound"), budgets=(25,))
        result = run_campaign(spec, results_dir=str(tmp_path))
        assert counter.count == 1
        reused = {o.cell.solver: o.dataset_reused for o in result.outcomes}
        assert reused == {"greedy": False, "branch-and-bound": True}
        # Both solved the *same* corpus.
        sizes = {o.test_cases for o in result.outcomes}
        assert sizes == {25}

    def test_smaller_budget_derives_prefix_of_larger_cached_budget(
        self, tmp_path, monkeypatch
    ):
        """Budgets sharing a stream are generated once at the largest
        budget; smaller cells take a byte-identical prefix."""
        counter = _GeneratorCounter(monkeypatch)
        spec = _spec(budgets=(40, 20))
        result = run_campaign(spec, results_dir=str(tmp_path))
        assert counter.count == 1  # only the 40-case corpus is generated
        small = result.outcome(budget=20)
        assert small.dataset_reused
        # The derived prefix equals a from-scratch 20-case evaluation.
        cache_file = small.cell.pipeline(
            cache_dir=os.path.join(str(tmp_path), "cache")
        ).cache_path()
        with open(cache_file) as stream:
            derived = stream.read()
        fresh = SynthesisPipeline().core("ibex").budget(20, 0).evaluate()
        assert derived == fresh.to_json()

    def test_smaller_budget_listed_first_still_generates_once(
        self, tmp_path, monkeypatch
    ):
        """Cells run largest budget first within a dataset group, so a
        plan that lists the small budget first still generates one
        corpus, and the small cell takes its prefix."""
        counter = _GeneratorCounter(monkeypatch)
        events = []
        result = run_campaign(
            _spec(budgets=(20, 40)),
            results_dir=str(tmp_path),
            progress=events.append,
        )
        assert counter.count == 1
        assert [event.cell.budget for event in events] == [40, 20]
        assert [o.cell.budget for o in result.outcomes] == [20, 40]
        assert result.outcome(budget=20).dataset_reused
        assert not result.outcome(budget=40).dataset_reused

    def test_generating_cell_reports_its_own_evaluation(self, tmp_path):
        """The cell that generates its group's corpus evaluates it inside
        its own run: its outcome is no cache hit, and its evaluation is
        most of its ``cell`` span.  The smaller sibling loads a prefix."""
        trace = str(tmp_path / "trace.jsonl")
        spec = _spec(budgets=(3000, 1000), trace_path=trace)
        result = run_campaign(spec, results_dir=str(tmp_path))
        big, small = result.outcome(budget=3000), result.outcome(budget=1000)
        assert not big.cache_hit and not big.dataset_reused
        assert small.cache_hit and small.dataset_reused
        records = read_trace(trace)
        spans = {
            record["cell"]: record["seconds"]
            for record in records
            if record["kind"] == "cell" and "seconds" in record
        }
        span = spans[big.cell.label()]
        assert big.timings["evaluation"] >= 0.5 * span
        assert big.timings["total"] >= 0.8 * span
        metrics = [record for record in records if record["kind"] == "metric"]
        counters = metrics[-1]["counters"]
        assert counters["dataset.cache.misses"] == 1
        assert counters["dataset.cache.hits"] == 1
        assert counters["dataset.prefix.derived"] == 1

    def test_run_history_records_each_cells_total(self, tmp_path):
        """The campaign's run-history record gives each executed cell
        its own wall time, not a sum over overlapping phases."""
        result = run_campaign(_spec(budgets=(40, 20)), results_dir=str(tmp_path))
        phases = load_runs(str(tmp_path))[-1]["phases"]
        assert phases == {
            "cell:%s" % outcome.cell.label(): round(outcome.timings["total"], 6)
            for outcome in result.outcomes
        }

    def test_cache_off_disables_reuse(self, tmp_path, monkeypatch):
        counter = _GeneratorCounter(monkeypatch)
        spec = _spec(solvers=("greedy", "branch-and-bound"), budgets=(15,))
        result = run_campaign(spec, results_dir=str(tmp_path), cache=False)
        assert counter.count == 2
        assert not any(o.dataset_reused for o in result.outcomes)

    def test_result_for_returns_full_pipeline_results(self, tmp_path):
        spec = _spec(budgets=(20,))
        result = run_campaign(spec, results_dir=str(tmp_path))
        cell = result.cells[0]
        pipeline_result = result.result_for(cell)
        assert len(pipeline_result.dataset) == 20
        # A resumed campaign rebuilds the result through the factory.
        resumed = run_campaign(spec, results_dir=str(tmp_path))
        rebuilt = resumed.result_for(cell)
        assert rebuilt.contract.atom_ids == pipeline_result.contract.atom_ids
        assert rebuilt.timings.cache_hit
