"""One worker pool per run.

Every fork of a run comes from its one :class:`~repro.forkpool.ForkPool`
(at most ``processes`` workers, forked together), and no fork happens
while a second thread is alive: a child forked beside a running thread
can inherit a lock that thread holds.  Evaluation shards, directed
verification shards and adaptive round solves share the pool, and no
worker outlives the run.
"""

import multiprocessing
import os
import threading
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.adaptive import AdaptiveLoop
from repro.campaign import CampaignRunner, CampaignSpec
from repro.evaluation.backends import ShardEvaluator
from repro.evaluation.backends import executors as executors_module
from repro.forkpool import ForkPool, current_pool
from repro.pipeline import SynthesisPipeline

#: The live-thread count at every fork while a test records.
_FORKS = []
_RECORDING = threading.Event()


def _before_fork():
    if _RECORDING.is_set():
        _FORKS.append(threading.active_count())


os.register_at_fork(before=_before_fork)


@pytest.fixture
def forks(monkeypatch):
    """``record(width)`` pins ``width`` usable CPUs and returns two
    lists it fills from then on: the live threads at each fork, and the
    size of each pool forked."""
    pools = []
    real = ForkPool._fork

    def spy(pool):
        pools.append(pool.workers)
        return real(pool)

    monkeypatch.setattr(ForkPool, "_fork", spy)

    def record(width):
        monkeypatch.setattr(executors_module, "usable_cpus", lambda: width)
        _FORKS.clear()
        pools.clear()
        _RECORDING.set()
        return _FORKS, pools

    yield record
    _RECORDING.clear()


def _assert_one_pool(threads, pools, processes):
    assert threads == [1] * len(threads)
    assert len(pools) <= 1
    assert len(threads) == sum(pools) <= processes
    assert multiprocessing.active_children() == []


class TestOneShotRuns:
    @pytest.mark.parametrize("verify", [None, 600])
    def test_evaluation_and_verify_share_one_pool(self, forks, verify):
        threads, pools = forks(2)
        result = (
            SynthesisPipeline().core("ibex").budget(500, seed=4).verify(verify).run()
        )
        assert len(result.dataset) == 500
        _assert_one_pool(threads, pools, 2)
        assert pools == [2]

    def test_verify_alone_forks_the_runs_pool(self, forks):
        """A serial run's directed verification fans out on the run's
        pool, sized by the run's ``processes``."""
        threads, pools = forks(4)
        result = (
            SynthesisPipeline()
            .core("ibex")
            .budget(40, seed=4)
            .executor("serial", processes=3)
            .verify(600)
            .run()
        )
        assert result.verification.test_cases == 600
        _assert_one_pool(threads, pools, 3)
        assert pools == [3]


class TestAdaptiveRuns:
    @pytest.mark.parametrize("executor", ["serial", "multiprocess"])
    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_rounds_and_solves_share_one_pool(self, forks, executor, width):
        threads, pools = forks(width)
        result = (
            SynthesisPipeline()
            .core("ibex")
            .budget(160, seed=6)
            .adaptive("coverage", rounds=4, stop="budget")
            .executor(executor, shard_size=20)
            .run()
        )
        assert len(result.dataset) == 160
        _assert_one_pool(threads, pools, width)
        assert pools == ([width] if width > 1 else [])


class TestCampaigns:
    def test_sequential_cells_fork_one_pool_each(self, forks, tmp_path):
        threads, pools = forks(2)
        spec = CampaignSpec(
            name="pools",
            cores=("ibex",),
            solvers=("greedy",),
            budgets=(60,),
            seeds=(1, 2),
            verify=0,
        )
        runner = CampaignRunner(
            spec, results_dir=str(tmp_path), cache=False, shard_size=20
        )
        assert len(runner.run().outcomes) == 2
        assert pools == [2, 2]
        assert threads == [1] * 4
        assert multiprocessing.active_children() == []


def _pid(_target):
    return os.getpid()


def _die(_target):
    os._exit(1)


class TestForkPool:
    def test_forks_only_at_first_use_and_closes_with_the_block(self):
        target = object()
        with ForkPool(2, [target]) as pool:
            assert current_pool(target) is pool
            assert multiprocessing.active_children() == []
            assert pool.submit(_pid, target).result() != os.getpid()
            assert len(multiprocessing.active_children()) == 2
        assert current_pool() is None
        assert multiprocessing.active_children() == []

    def test_targets_are_fixed_at_the_fork(self):
        with ForkPool(1, [1]) as pool:
            pool.start()
            with pytest.raises(RuntimeError, match="cannot inherit"):
                pool.inherit(2)

    def test_a_dead_worker_breaks_the_pool_until_its_next_use(self):
        target = object()
        with ForkPool(1, [target]) as pool:
            first = pool.submit(_pid, target).result()
            with pytest.raises(BrokenProcessPool):
                pool.submit(_die, target).result()
            assert pool.submit(_pid, target).result() != first
        assert multiprocessing.active_children() == []

    def test_a_stack_over_the_same_plugins_is_the_same_stack(self):
        """Directed verification builds its stack anew over the plugins
        the run built in setup; the run's pool must recognise it."""
        from repro.contracts.riscv_template import build_riscv_template
        from repro.testgen.generator import TestCaseGenerator
        from repro.uarch import CORE_REGISTRY

        template = build_riscv_template()
        core = CORE_REGISTRY.create("ibex")
        generator = TestCaseGenerator(template, seed=1)
        built = ShardEvaluator.from_plugins(core, template, generator)
        same = ShardEvaluator.from_plugins(
            core, template, generator, attacker=built.evaluator.attacker
        )
        other = ShardEvaluator.from_plugins(
            core,
            template,
            TestCaseGenerator(template, seed=1),
            attacker=built.evaluator.attacker,
        )
        with ForkPool(1, [built]):
            assert current_pool(same) is not None
            assert current_pool(other) is None


def test_adaptive_loop_outside_a_run_owns_its_pool(forks):
    threads, pools = forks(8)
    AdaptiveLoop(
        core="ibex", generator="coverage", rounds=3, batch=20, stop="budget"
    ).run()
    _assert_one_pool(threads, pools, 3)
    assert pools == [3]
