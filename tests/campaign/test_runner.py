"""End-to-end tests for the campaign runner: grid execution,
cell-granularity kill/resume, and cross-cell dataset-cache reuse.

These are the ``campaign``-marked CI smoke suite
(``pytest -m campaign``): tiny budgets, every feature exercised.
"""

import os
import time

import pytest

import repro.pipeline.pipeline as pipeline_module
from repro.campaign import CampaignRunner, CampaignSpec, run_campaign
from repro.pipeline import SynthesisPipeline

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

    def test_parallel_cells_match_serial(self, tmp_path):
        spec = _spec(
            cores=("ibex", "ibex-dcache"), budgets=(15, 30), solvers=("greedy",)
        )
        serial = run_campaign(
            spec, results_dir=str(tmp_path / "serial"), max_parallel_cells=1
        )
        parallel = run_campaign(
            spec, results_dir=str(tmp_path / "parallel"), max_parallel_cells=4
        )
        assert [o.atom_ids for o in serial.outcomes] == [
            o.atom_ids for o in parallel.outcomes
        ]

    @pytest.mark.parametrize(
        "parallel, budget, expected",
        [(1, None, {None}), (2, None, {2}), (3, None, {1}), (2, 6, {3})],
    )
    def test_concurrent_cells_split_the_usable_cpus(
        self, tmp_path, monkeypatch, parallel, budget, expected
    ):
        """Without a process budget, concurrent cells share the CPUs
        the process may use instead of each forking a full-size pool."""
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: set(range(4)), raising=False
        )
        sizes = []
        original = CampaignRunner.cell_pipeline

        def recording(runner, cell, processes=None):
            sizes.append(processes)
            return original(runner, cell, processes=processes)

        monkeypatch.setattr(CampaignRunner, "cell_pipeline", recording)
        run_campaign(
            _spec(cores=("ibex", "ibex-dcache", "cva6"), budgets=(10,)),
            results_dir=str(tmp_path),
            max_parallel_cells=parallel,
            process_budget=budget,
        )
        assert set(sizes) == expected

    def test_concurrent_cells_size_the_default_pool(self, tmp_path, monkeypatch):
        """Without an executor, each concurrent cell's default pool
        gets its share of the usable CPUs and the runner's shard size."""
        import repro.campaign.runner as runner_module

        monkeypatch.setattr(runner_module, "usable_cpus", lambda: 4)
        sizes = []
        original = pipeline_module.evaluate_parallel

        def recording(**kwargs):
            sizes.append((kwargs["executor"].processes, kwargs["shard_size"]))
            return original(**kwargs)

        monkeypatch.setattr(pipeline_module, "evaluate_parallel", recording)
        run_campaign(
            _spec(cores=("ibex", "ibex-dcache")),
            results_dir=str(tmp_path),
            max_parallel_cells=2,
            shard_size=10,
        )
        assert sizes == [(2, 10), (2, 10)]

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

    def test_parallel_campaign_checkpoints_cells_as_they_complete(self, tmp_path):
        """With max_parallel_cells > 1, every cell handled before the
        kill is in the manifest — a parallel campaign must not defer
        checkpointing to the end of the run."""
        spec = _spec(cores=("ibex", "ibex-dcache"), budgets=(10, 20))

        class Killed(Exception):
            pass

        def kill_after_two(event):
            if event.completed_cells == 2:
                raise Killed()

        with pytest.raises(Killed):
            run_campaign(
                spec,
                results_dir=str(tmp_path),
                max_parallel_cells=2,
                progress=kill_after_two,
            )
        status = CampaignRunner(spec, results_dir=str(tmp_path)).status()
        assert len(status.completed) >= 2

        events = []
        resumed = run_campaign(
            spec,
            results_dir=str(tmp_path),
            max_parallel_cells=2,
            progress=events.append,
        )
        assert sum(1 for event in events if event.resumed) >= 2
        fresh = run_campaign(spec, results_dir=str(tmp_path / "fresh"))
        assert [o.atom_ids for o in resumed.outcomes] == [
            o.atom_ids for o in fresh.outcomes
        ]

    def test_parallel_cell_failure_keeps_completed_siblings(
        self, tmp_path, monkeypatch
    ):
        """A failing cell re-raises, but siblings that finished before
        it stay checkpointed."""
        spec = _spec(cores=("ibex", "ibex-dcache"), budgets=(10,))
        runner = CampaignRunner(
            spec, results_dir=str(tmp_path), max_parallel_cells=2
        )
        original = runner._execute

        def flaky(cell, concurrent, group_max):
            if cell.core == "ibex-dcache":
                time.sleep(0.2)  # let the sibling finish first
                raise RuntimeError("boom")
            return original(cell, concurrent, group_max)

        monkeypatch.setattr(runner, "_execute", flaky)
        with pytest.raises(RuntimeError, match="boom"):
            runner.run()
        status = CampaignRunner(spec, results_dir=str(tmp_path)).status()
        assert [cell.core for cell in status.completed] == ["ibex"]

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

    def test_small_budget_provisioning_first_still_generates_group_max(
        self, tmp_path, monkeypatch
    ):
        """Under parallel scheduling a small-budget cell can win the
        group lock before its larger sibling; provisioning must then
        evaluate the group's largest *pending* budget once (serving
        itself a prefix) rather than generating the small corpus and
        forcing the sibling to regenerate from scratch."""
        counter = _GeneratorCounter(monkeypatch)
        spec = _spec(budgets=(40, 20))
        runner = CampaignRunner(spec, results_dir=str(tmp_path))
        small = next(cell for cell in runner.cells() if cell.budget == 20)
        big = next(cell for cell in runner.cells() if cell.budget == 40)
        group_max = {small.dataset_group(): 40}

        # Simulate the race: the small cell provisions first.
        reused = runner._provision_dataset(
            runner.cell_pipeline(small), small, group_max
        )
        assert not reused  # the small cell did the (group-max) work
        assert counter.count == 1
        # Both cache entries now exist; the big cell does nothing new.
        assert runner._provision_dataset(runner.cell_pipeline(big), big, group_max)
        assert counter.count == 1
        with open(runner.cell_pipeline(small).cache_path()) as stream:
            derived = stream.read()
        fresh = SynthesisPipeline().core("ibex").budget(20, 0).evaluate()
        assert derived == fresh.to_json()

    def test_parallel_prefix_reuse_generates_once(self, tmp_path, monkeypatch):
        """The end-to-end invariant: however the scheduler interleaves
        a (40, 20) group with max_parallel_cells=2, exactly one corpus
        is generated."""
        counter = _GeneratorCounter(monkeypatch)
        spec = _spec(budgets=(40, 20))
        result = run_campaign(
            spec, results_dir=str(tmp_path), max_parallel_cells=2
        )
        assert counter.count == 1
        assert result.outcome(budget=20).test_cases == 20

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
