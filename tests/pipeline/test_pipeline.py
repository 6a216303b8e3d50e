"""End-to-end tests for the SynthesisPipeline builder API.

These are the ``pipeline``-marked fast smoke suite
(``pytest -m pipeline``): tiny budgets, every phase exercised.
"""

import os

import pytest

from repro.contracts.atoms import LeakageFamily
from repro.contracts.riscv_template import build_riscv_template
from repro.evaluation.evaluator import TestCaseEvaluator
from repro.pipeline import SynthesisPipeline
from repro.testgen.generator import TestCaseGenerator
from repro.uarch.ibex import IbexCore

pytestmark = pytest.mark.pipeline

BUDGET = 60
SEED = 9


def legacy_evaluate(count=BUDGET, seed=SEED):
    """The pre-pipeline evaluation path, verbatim: explicit generator,
    evaluator, and core construction (what runner.evaluate_dataset did
    before it became a pipeline wrapper)."""
    template = build_riscv_template()
    generator = TestCaseGenerator(template, seed=seed)
    evaluator = TestCaseEvaluator(IbexCore(), template)
    return evaluator.evaluate_many(generator.iter_generate(count))


class TestEndToEnd:
    def test_run_produces_full_result(self):
        result = (
            SynthesisPipeline()
            .core("ibex")
            .attacker("retirement-timing")
            .template("riscv-rv32im")
            .budget(BUDGET, seed=SEED)
            .solver("scipy-milp")
            .run()
        )
        assert result.core_name == "ibex"
        assert result.attacker_name == "retirement-timing"
        assert result.solver_name == "scipy-milp"
        assert result.template_name == "riscv-rv32im"
        assert len(result.dataset) == BUDGET
        assert result.atom_count == len(result.contract) > 0
        assert result.synthesis.solver_result.optimal
        # The synthesized contract covers its own synthesis set.
        assert result.verification is not None and result.satisfied
        timings = result.timings
        assert timings.setup_seconds > 0
        assert timings.evaluation_seconds > 0
        assert timings.synthesis_seconds > 0
        assert timings.total_seconds >= (
            timings.setup_seconds
            + timings.evaluation_seconds
            + timings.synthesis_seconds
        )
        assert "core=ibex" in result.render()

    def test_dataset_byte_identical_to_legacy_path(self):
        pipeline_dataset = (
            SynthesisPipeline().core("ibex").budget(BUDGET, seed=SEED).evaluate()
        )
        assert pipeline_dataset.to_json() == legacy_evaluate().to_json()

    def test_runner_evaluate_dataset_byte_identical(self):
        from repro.experiments.runner import evaluate_dataset, shared_template

        dataset, evaluator = evaluate_dataset(
            "ibex", shared_template(), BUDGET, SEED
        )
        assert evaluator is not None
        assert dataset.to_json() == legacy_evaluate().to_json()

    def test_instances_accepted_in_place_of_names(self):
        template = build_riscv_template()
        result = (
            SynthesisPipeline()
            .core(IbexCore())
            .template(template)
            .budget(30, seed=1)
            .run()
        )
        assert result.core_name == "ibex"
        assert result.synthesis.contract.template is template

    def test_restriction_limits_atom_families(self):
        result = (
            SynthesisPipeline()
            .core("ibex")
            .budget(150, seed=4)
            .restrict("base")
            .run()
        )
        assert result.restriction == "IL+RL+ML"
        families = {atom.family for atom in result.contract.atoms}
        assert families <= {LeakageFamily.IL, LeakageFamily.RL, LeakageFamily.ML}

    def test_alternate_solver_and_verify_budget(self):
        result = (
            SynthesisPipeline()
            .core("ibex")
            .budget(BUDGET, seed=SEED)
            .solver("greedy")
            .verify(40, seed=123)
            .run()
        )
        assert result.solver_name == "greedy"
        assert result.verification.test_cases == 40
        # verify(0) skips verification entirely.
        skipped = (
            SynthesisPipeline().core("ibex").budget(30, seed=1).verify(0).run()
        )
        assert skipped.verification is None and skipped.satisfied is None

    def test_unknown_names_raise_with_choices(self):
        with pytest.raises(ValueError, match="unknown core"):
            SynthesisPipeline().core("rocket").run()
        with pytest.raises(ValueError, match="unknown attacker"):
            SynthesisPipeline().attacker("oscilloscope").budget(5).run()
        with pytest.raises(ValueError, match="unknown solver"):
            SynthesisPipeline().solver("cplex").budget(5).run()


class TestDatasetCache:
    def test_cache_round_trip(self, tmp_path):
        pipeline = (
            SynthesisPipeline()
            .core("ibex")
            .budget(25, seed=3)
            .cache_dir(str(tmp_path))
        )
        first, evaluator = pipeline.evaluate_with_stats()
        assert evaluator is not None  # cache miss
        second, evaluator_2 = pipeline.evaluate_with_stats()
        assert evaluator_2 is None  # cache hit
        assert first.to_json() == second.to_json()
        assert len(os.listdir(str(tmp_path))) == 1

    def test_cache_key_includes_attacker(self, tmp_path):
        """Regression: switching attackers must not reuse a stale
        cached dataset evaluated under a different attacker."""
        timing = (
            SynthesisPipeline()
            .core("ibex-dcache")
            .attacker("retirement-timing")
            .budget(40, seed=2)
            .cache_dir(str(tmp_path))
            .evaluate()
        )
        cache_state = (
            SynthesisPipeline()
            .core("ibex-dcache")
            .attacker("cache-state")
            .budget(40, seed=2)
            .cache_dir(str(tmp_path))
            .evaluate()
        )
        assert len(os.listdir(str(tmp_path))) == 2  # two distinct cache entries
        assert timing.attacker_name == "retirement-timing"
        assert cache_state.attacker_name == "cache-state"
        verdicts_timing = [r.attacker_distinguishable for r in timing]
        verdicts_cache = [r.attacker_distinguishable for r in cache_state]
        assert verdicts_timing != verdicts_cache

    def test_cache_key_includes_generator(self, tmp_path):
        """Regression: cached corpora from different generation
        strategies must never be conflated — same core, attacker, and
        seed, but the strategies emit different test-case streams."""
        base = lambda: (  # noqa: E731 - concise per-call builder
            SynthesisPipeline().core("ibex").budget(20, seed=3).cache_dir(str(tmp_path))
        )
        random_dataset, evaluator = base().evaluate_with_stats()
        assert evaluator is not None  # cache miss, evaluated fresh
        coverage_dataset, evaluator = (
            base().generator("coverage").evaluate_with_stats()
        )
        assert evaluator is not None  # cache MISS again: new strategy
        assert len(os.listdir(str(tmp_path))) == 2  # two distinct entries
        atoms_random = [sorted(r.distinguishing_atom_ids) for r in random_dataset]
        atoms_coverage = [sorted(r.distinguishing_atom_ids) for r in coverage_dataset]
        assert atoms_random != atoms_coverage
        # And the same strategy hits its own entry.
        _again, evaluator = base().generator("coverage").evaluate_with_stats()
        assert evaluator is None

    def test_generator_instances_disable_caching(self, tmp_path):
        """A strategy instance may carry feedback state its name does
        not express, so it cannot key a cache entry."""
        from repro.contracts.riscv_template import build_riscv_template
        from repro.testgen import CoverageStrategy

        strategy = CoverageStrategy(build_riscv_template(), seed=3)
        pipeline = (
            SynthesisPipeline()
            .core("ibex")
            .budget(10, seed=3)
            .generator(strategy)
            .cache_dir(str(tmp_path))
        )
        assert pipeline.cache_path() is None

    def test_adaptive_mode_bypasses_the_dataset_cache(self, tmp_path):
        pipeline = (
            SynthesisPipeline()
            .core("ibex")
            .budget(10, seed=3)
            .adaptive(rounds=2, batch=5)
            .cache_dir(str(tmp_path))
        )
        assert pipeline.cache_path() is None

    def test_adaptive_batch_derives_from_the_budget(self):
        """Without an explicit batch the configured budget stays the
        adaptive case ceiling: split across rounds, rounds clamped for
        tiny budgets, and a zero budget rejected."""
        plan = SynthesisPipeline().budget(1000).adaptive(rounds=8).config.round_plan()
        assert plan == (8, 125)
        tiny = SynthesisPipeline().budget(3).adaptive(rounds=8).config.round_plan()
        assert tiny == (3, 1)
        explicit = (
            SynthesisPipeline().budget(1000).adaptive(rounds=8, batch=40)
        ).config.round_plan()
        assert explicit == (8, 40)
        with pytest.raises(ValueError, match="positive"):
            SynthesisPipeline().budget(0).adaptive(rounds=8).config.round_plan()

    def test_cache_key_includes_fastpath_flag(self, tmp_path):
        pipeline = (
            SynthesisPipeline().core("ibex").budget(10, seed=1).cache_dir(str(tmp_path))
        )
        fast_path = pipeline.cache_path()
        reference_path = pipeline.fastpath(False).cache_path()
        assert fast_path != reference_path
        assert reference_path.endswith("-ref.json")

    def test_fastpath_takes_a_bool(self, tmp_path):
        pipeline = SynthesisPipeline().budget(10, seed=1).cache_dir(str(tmp_path))
        assert pipeline.fastpath("reference").cache_path().endswith("-ref.json")
        for mode in ("batch", "compiled", 1):
            with pytest.raises(ValueError, match="fastpath"):
                SynthesisPipeline().fastpath(mode)

    def test_instance_configured_core_is_never_cached(self, tmp_path):
        """A core instance may carry config its name does not express
        (IbexCore(IbexConfig(dcache=True)).name is still 'ibex'), so
        instance-configured pipelines must bypass the cache."""
        from repro.uarch.ibex import IbexConfig

        named = (
            SynthesisPipeline().core("ibex").budget(20, seed=2).cache_dir(str(tmp_path))
        )
        assert named.cache_path() is not None
        named.evaluate()
        instance = (
            SynthesisPipeline()
            .core(IbexCore(IbexConfig(dcache=True)))
            .budget(20, seed=2)
            .cache_dir(str(tmp_path))
        )
        assert instance.cache_path() is None
        _dataset, evaluator = instance.evaluate_with_stats()
        assert evaluator is not None  # evaluated live, not served stale

    def test_directed_verify_defaults_to_disjoint_seed(self, monkeypatch):
        """verify(n) without a seed must not replay the synthesis
        stream (which the contract trivially satisfies)."""
        import repro.pipeline.pipeline as pipeline_module

        seen = []
        original = pipeline_module.check_contract_satisfaction

        def spy(*args, **kwargs):
            seen.append(kwargs["seed"])
            return original(*args, **kwargs)

        monkeypatch.setattr(pipeline_module, "check_contract_satisfaction", spy)
        SynthesisPipeline().core("ibex").budget(20, seed=9).verify(10).run()
        assert seen == [10]  # synthesis seed 9 + 1, not 0 and not 9

    def test_run_uses_cache(self, tmp_path):
        pipeline = (
            SynthesisPipeline().core("ibex").budget(25, seed=3).cache_dir(str(tmp_path))
        )
        first = pipeline.run()
        assert not first.timings.cache_hit
        second = pipeline.run()
        assert second.timings.cache_hit
        assert second.dataset.to_json() == first.dataset.to_json()
        assert second.contract.atom_ids == first.contract.atom_ids


class TestExecutorBackends:
    def test_executor_dataset_byte_identical_to_in_process(self):
        sharded = (
            SynthesisPipeline()
            .core("ibex")
            .budget(BUDGET, seed=SEED)
            .executor("serial", shard_size=13)
            .evaluate()
        )
        assert sharded.to_json() == legacy_evaluate().to_json()

    def test_run_records_executor_shard_stats(self):
        events = []
        result = (
            SynthesisPipeline()
            .core("ibex")
            .budget(40, seed=2)
            .solver("greedy")
            .executor("serial", shard_size=10)
            .on_shard(events.append)
            .run()
        )
        timings = result.timings
        assert timings.executor_name == "serial"
        assert timings.shards_total == 4
        assert timings.shards_resumed == 0
        assert "executor serial" in timings.render()
        assert [event.completed_shards for event in events] == [1, 2, 3, 4]

    def test_resume_checkpoints_under_the_cache_key(self, tmp_path):
        pipeline = (
            SynthesisPipeline()
            .core("ibex")
            .budget(30, seed=3)
            .solver("greedy")
            .executor("serial", shard_size=10)
            .cache_dir(str(tmp_path))
            .resume()
        )
        manifest_path = pipeline.manifest_path()
        assert manifest_path.startswith(str(tmp_path))
        assert manifest_path.endswith(".shards.jsonl")
        first = pipeline.run()
        assert os.path.exists(manifest_path)
        assert first.timings.shards_resumed == 0

        # Drop the cached dataset (not the manifest): the re-run must
        # resume every shard from the checkpoint.
        os.unlink(pipeline.cache_path())
        second = pipeline.run()
        assert second.timings.shards_resumed == second.timings.shards_total == 3
        assert second.dataset.to_json() == first.dataset.to_json()

    def test_resume_keeps_the_default_executor(self, tmp_path):
        pipeline = (
            SynthesisPipeline()
            .core("ibex")
            .budget(20, seed=1)
            .solver("greedy")
            .executor(None, shard_size=10)
            .cache_dir(str(tmp_path))
            .resume()
        )
        first = pipeline.run()
        assert first.timings.executor_name is None
        assert first.timings.simulation_seconds > 0
        assert os.path.exists(pipeline.manifest_path())

        os.unlink(pipeline.cache_path())
        second = pipeline.run()
        assert second.timings.executor_name is None
        assert second.timings.shards_resumed == second.timings.shards_total == 2
        assert second.dataset.to_json() == first.dataset.to_json()

    def test_resume_without_cache_dir_requires_explicit_path(self, tmp_path):
        with pytest.raises(ValueError, match="resume"):
            SynthesisPipeline().core("ibex").budget(10).resume().run()
        explicit = str(tmp_path / "manifest.jsonl")
        result = (
            SynthesisPipeline()
            .core("ibex")
            .budget(20, seed=1)
            .solver("greedy")
            .executor("serial")
            .resume(explicit)
            .run()
        )
        assert result.atom_count > 0
        assert os.path.exists(explicit)

    def test_workqueue_requires_name_configured_plugins(self):
        with pytest.raises(ValueError, match="workqueue.*registry name"):
            (
                SynthesisPipeline()
                .core(IbexCore())
                .budget(10)
                .executor("workqueue")
                .evaluate()
            )


class TestDefaultRunIsTheSerialLoop:
    """A run without an executor is the serial backend over the stack
    built in setup."""

    def test_default_run_matches_the_named_serial_executor(self):
        default = SynthesisPipeline().core("ibex").budget(BUDGET, seed=SEED).run()
        serial = (
            SynthesisPipeline()
            .core("ibex")
            .budget(BUDGET, seed=SEED)
            .executor("serial")
            .run()
        )
        assert default.dataset.to_json() == serial.dataset.to_json()
        assert default.dataset.to_json() == legacy_evaluate().to_json()
        # The default run keeps its in-process timing detail.
        timings = default.timings
        assert timings.executor_name is None
        assert timings.simulation_seconds > 0
        assert "sim " in timings.render()

    def test_default_run_streams_shard_events(self):
        events = []
        (
            SynthesisPipeline()
            .core("ibex")
            .budget(30, seed=2)
            .executor(None, shard_size=10)
            .on_shard(events.append)
            .evaluate()
        )
        assert [event.shard for event in events] == [(0, 10), (10, 10), (20, 10)]

    def test_instance_configured_core_matches_the_named_core(self):
        from repro.uarch.ibex import IbexConfig

        def run(core):
            return (
                SynthesisPipeline()
                .core(core)
                .attacker("cache-state")
                .template("riscv-mem")
                .budget(120, seed=5)
                .run()
            )

        named = run("ibex-dcache")
        instance = run(IbexCore(IbexConfig(dcache=True)))
        rows = [result.to_dict() for result in named.dataset]
        assert [result.to_dict() for result in instance.dataset] == rows
        assert instance.contract.atom_ids == named.contract.atom_ids
        # The header names the core as configured.
        assert named.dataset.core_name == "ibex-dcache"
        assert instance.dataset.core_name == "ibex-dcache"


def _usable_cpus(monkeypatch, count):
    """Pin the CPUs the process may use, as a pinned container would."""
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: set(range(count)), raising=False
    )


def _count_pools(monkeypatch, refuse=False):
    """Record the size of every worker pool a run forks (or refuse to
    fork one)."""
    from repro.forkpool import ForkPool

    pools = []
    real = ForkPool._fork

    def spy(pool):
        if refuse:
            raise AssertionError("the run forked a process pool")
        pools.append(pool.workers)
        return real(pool)

    monkeypatch.setattr(ForkPool, "_fork", spy)
    return pools


class TestDefaultRunFansOut:
    """A run without an executor evaluates its shards on the usable
    CPUs, over the stack built in setup, inherited by fork."""

    def test_pooled_default_run_matches_serial_and_legacy(self, monkeypatch):
        _usable_cpus(monkeypatch, 2)
        pools = _count_pools(monkeypatch)
        default = (
            SynthesisPipeline()
            .core("ibex")
            .budget(BUDGET, seed=SEED)
            .executor(None, shard_size=20)
            .run()
        )
        assert pools == [2]
        serial = (
            SynthesisPipeline()
            .core("ibex")
            .budget(BUDGET, seed=SEED)
            .executor("serial", shard_size=20)
            .run()
        )
        assert default.dataset.to_json() == serial.dataset.to_json()
        assert default.dataset.to_json() == legacy_evaluate().to_json()
        # Every shard ran in a worker, so only the timers folded back
        # into the setup stack's evaluator can make these non-zero.
        timings = default.timings
        assert timings.executor_name is None
        assert timings.simulation_seconds > 0
        assert timings.extraction_seconds > 0
        assert "sim " in timings.render()

    @pytest.mark.parametrize(
        "configure, pooled",
        [
            (lambda pipeline, tmp_path: pipeline, True),
            (lambda pipeline, tmp_path: pipeline.executor("serial"), False),
            (lambda pipeline, tmp_path: pipeline.executor("multiprocess"), True),
            (lambda pipeline, tmp_path: pipeline.resume(str(tmp_path / "m")), True),
            (lambda pipeline, tmp_path: pipeline.retry(2), True),
            (lambda pipeline, tmp_path: pipeline.timeout(30.0), True),
        ],
        ids=["default", "serial", "multiprocess", "resume", "retry", "timeout"],
    )
    def test_unregistered_instance_core_fans_out(
        self, monkeypatch, tmp_path, configure, pooled
    ):
        """Every in-process backend runs on the stack built in setup,
        which pool workers inherit: rebuilding it from the task's names
        would fail on a core no registry knows."""
        from repro.evaluation.backends import ShardEvaluator

        class UnregisteredIbex(IbexCore):
            def __init__(self):
                super().__init__()
                self.name = "ibex-unregistered"

        def refuse(task):
            raise AssertionError("a worker rebuilt its stack from the task")

        named = (
            SynthesisPipeline()
            .core("ibex")
            .budget(BUDGET, seed=SEED)
            .executor("serial", shard_size=20)
            .evaluate()
        )
        _usable_cpus(monkeypatch, 2)
        pools = _count_pools(monkeypatch)
        monkeypatch.setattr(ShardEvaluator, "from_task", staticmethod(refuse))
        instance = configure(
            SynthesisPipeline()
            .core(UnregisteredIbex())
            .budget(BUDGET, seed=SEED)
            .executor(None, shard_size=20),
            tmp_path,
        ).evaluate()
        assert pools == ([2] if pooled else [])
        assert instance.core_name == "ibex-unregistered"
        assert [r.to_dict() for r in instance] == [r.to_dict() for r in named]

    @pytest.mark.parametrize("cpus, budget", [(1, BUDGET), (2, 20)])
    def test_one_cpu_or_one_shard_forks_no_pool(self, monkeypatch, cpus, budget):
        _usable_cpus(monkeypatch, cpus)
        _count_pools(monkeypatch, refuse=True)
        events = []
        result = (
            SynthesisPipeline()
            .core("ibex")
            .budget(budget, seed=SEED)
            .executor(None, shard_size=20)
            .on_shard(events.append)
            .run()
        )
        assert len(result.dataset) == budget
        assert len(events) == -(-budget // 20)
        assert result.timings.simulation_seconds > 0
