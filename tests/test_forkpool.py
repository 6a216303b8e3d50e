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
from concurrent.futures import CancelledError
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.adaptive import AdaptiveLoop
from repro.campaign import CampaignRunner, CampaignSpec
from repro.contracts.riscv_template import build_riscv_template
from repro.contracts.template import Contract
from repro.evaluation.backends import executors as executors_module
from repro.forkpool import ForkPool, current_pool
from repro.pipeline import SynthesisPipeline
from repro.pipeline.config import AdaptivePlan, PipelineConfig
from repro.uarch import CORE_REGISTRY
from repro.verification import check_contract_satisfaction

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

    def test_verify_shards_run_on_the_stack_the_pool_inherited(
        self, forks, monkeypatch
    ):
        """The verify stack built in setup is the very object the run's
        one pool inherited, and its shards are submitted with it."""
        threads, pools = forks(2)
        submitted = []
        submit = ForkPool.submit

        def spy(pool, fn, target, *args):
            submitted.append((pool, target))
            return submit(pool, fn, target, *args)

        monkeypatch.setattr(ForkPool, "submit", spy)
        result = (
            SynthesisPipeline().core("ibex").budget(500, seed=4).verify(600).run()
        )
        assert result.verification.test_cases == 600
        _assert_one_pool(threads, pools, 2)
        assert len({id(pool) for pool, _target in submitted}) == 1
        # Two evaluation shards (seed 4), three verify shards (seed 5).
        seeds = sorted(target.generator.seed for _pool, target in submitted)
        assert seeds == [4, 4, 5, 5, 5]
        for pool, target in submitted:
            assert any(target is inherited for inherited in pool.targets)


def test_a_direct_check_gets_a_pool_scoped_to_the_call(forks):
    threads, pools = forks(2)
    template = build_riscv_template()
    report = check_contract_satisfaction(
        Contract(template, []), CORE_REGISTRY.create("ibex"), test_cases=600, seed=3
    )
    assert report.test_cases == 600
    _assert_one_pool(threads, pools, 2)
    assert pools == [2]


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

    def test_a_cached_prefix_cell_forks_nothing(self, forks, tmp_path):
        """Cells run one at a time in the calling thread: the generating
        cell forks its run's pool, and its smaller sibling, served from
        the dataset cache, forks none."""
        threads, pools = forks(2)
        spec = CampaignSpec(
            name="prefix",
            cores=("ibex",),
            solvers=("greedy",),
            budgets=(40, 60),
            verify=0,
        )
        runner = CampaignRunner(spec, results_dir=str(tmp_path), shard_size=20)
        outcomes = runner.run().outcomes
        assert [outcome.cache_hit for outcome in outcomes] == [True, False]
        assert pools == [2]
        assert threads == [1] * 2
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


def test_adaptive_loop_outside_a_run_owns_its_pool(forks):
    threads, pools = forks(8)
    plan = AdaptivePlan(rounds=3, batch=20, stop="budget")
    AdaptiveLoop(PipelineConfig(generator="coverage", adaptive=plan)).run()
    _assert_one_pool(threads, pools, 3)
    assert pools == [3]


@pytest.mark.adaptive
def test_a_solve_after_the_loop_stopped_forks_no_pool(forks):
    """A round thread that reaches the solve pool after the loop stopped
    and closed it is cancelled instead of forking the pool again."""
    from repro.adaptive.loop import _PooledSolver
    from repro.synthesis.solvers import BranchAndBoundSolver

    _threads, pools = forks(2)
    solver = BranchAndBoundSolver()
    with ForkPool(1, [solver]) as pool:
        pooled = _PooledSolver(pool, solver)
        pooled.stop()
        with pytest.raises(CancelledError):
            pooled.solve(None)
    assert pools == []
