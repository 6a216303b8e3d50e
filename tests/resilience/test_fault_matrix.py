"""The fault matrix: every registered fault plan, injected into a
pinned pipeline run, must end in a contract byte-identical to the
fault-free reference — fault tolerance may never change the science.

One test per registered plan (a coverage check pins the set), plus the
quarantine path: shards that exhaust their retries land in the
FailureLog and the result's structured failure records, and their
incomplete dataset never reaches the dataset cache.
"""

import json
import multiprocessing
import os
import time

import pytest

from repro.adaptive import loop as loop_module
from repro.adaptive.loop import AdaptiveLoop
from repro.campaign import CampaignRunner, CampaignSpec
from repro.campaign import runner as runner_module
from repro.evaluation.backends import ShardEvaluator
from repro.evaluation.backends import executors as executors_module
from repro.pipeline import SynthesisPipeline
from repro.pipeline.config import AdaptivePlan, PipelineConfig
from repro.resilience import (
    ALWAYS,
    RetryPolicy,
    FAULT_REGISTRY,
    FailureLog,
    FatalInjectedFault,
    InjectedFault,
    ShardExecutionError,
    inject_fault,
)
from repro.synthesis.solvers import ScipyMilpSolver
from repro.trace import fold_file, read_trace

pytestmark = pytest.mark.faults

BUDGET = 40
SEED = 11
SHARD = 10
#: The hang and its soft deadline.  The deadline stays well above one
#: 10-case shard plus the pool's fork-and-initialize cost, so only the
#: injected hang can trip it.
HANG = 2.0
DEADLINE = 1.0
#: Seconds each shard sleeps in the uniformly-slow scenario.
SLOW_SHARD = 0.8


def _pipeline(executor="serial", **executor_settings):
    return (
        SynthesisPipeline()
        .core("ibex")
        .attacker("retirement-timing")
        .template("riscv-rv32im")
        .solver("scipy-milp")
        .budget(BUDGET, seed=SEED)
        .executor(executor, shard_size=SHARD, **executor_settings)
    )


def _adaptive_pipeline():
    return _pipeline().adaptive(rounds=2, batch=20, stop="budget")


def _campaign(directory, retries=1, trace=None, seeds=(SEED,)):
    spec = CampaignSpec(
        name="matrix",
        cores=("ibex",),
        attackers=("retirement-timing",),
        templates=("riscv-rv32im",),
        solvers=("scipy-milp",),
        budgets=(BUDGET,),
        seeds=seeds,
        retries=retries,
    )
    return CampaignRunner(
        spec, results_dir=directory, executor="serial", cache=False, trace=trace
    )


def _failure_kinds(trace_path):
    """The ``failure`` events a traced run left, in order."""
    return [
        record["failure"]
        for record in read_trace(trace_path)
        if record["kind"] == "failure"
    ]


def _fingerprint(result):
    """The byte-level identity of a run: dataset and contract."""
    return (result.dataset.to_json(), tuple(sorted(result.contract.atom_ids)))


@pytest.fixture(scope="module")
def reference():
    return _fingerprint(_pipeline().run())


@pytest.fixture(scope="module")
def adaptive_reference():
    return _fingerprint(_adaptive_pipeline().run())


def _assert_hang_is_rescheduled(reference, processes):
    with inject_fault("shard-hang", start_id=10, delay_seconds=HANG, hang_attempts=1):
        result = (
            _pipeline(executor="multiprocess", processes=processes)
            .retry(3)
            .timeout(DEADLINE)
            .run()
        )
    assert _fingerprint(result) == reference
    assert [record.kind for record in result.failures] == ["retry"]
    assert result.failures[0].unit == {"start_id": 10, "count": SHARD}
    assert "deadline" in result.failures[0].error


class TestFaultMatrix:
    def test_matrix_covers_every_registered_plan(self):
        """Adding a fault plan without a matrix entry must fail here."""
        assert set(FAULT_REGISTRY.names()) == {
            "shard-crash",  # test_shard_crash_is_retried_to_identity
            "shard-hang",  # test_shard_hang_is_rescheduled_by_the_watchdog
            "worker-error",  # test_worker_error_is_wrapped_and_retried
            "torn-checkpoint",  # test_torn_checkpoint_resumes_to_identity
            "pool-broken",  # test_pool_breakage_downgrades_to_serial
            "cell-crash",  # test_cell_crash_is_retried_to_identity
            "round-crash",  # test_round_crash_is_retried_to_identity
        }

    def test_shard_crash_is_retried_to_identity(self, reference):
        with inject_fault("shard-crash", start_id=10, fail_attempts=1):
            result = _pipeline().retry(3).run()
        assert _fingerprint(result) == reference
        assert [record.kind for record in result.failures] == ["retry"]
        assert result.timings.shards_quarantined == 0

    def test_worker_error_is_wrapped_and_retried(self, reference):
        with inject_fault("worker-error", start_id=20, fail_attempts=1):
            result = _pipeline().retry(3).run()
        assert _fingerprint(result) == reference
        retry = result.failures[0]
        assert retry.kind == "retry"
        assert retry.unit == {"start_id": 20, "count": SHARD}
        assert "(start_id=20, count=10)" in retry.error

    def test_in_process_worker_error_names_its_shard(self):
        """A default run (no executor) evaluates on the serial shard
        loop, so an evaluation error arrives attributed to its shard."""
        with inject_fault("worker-error", start_id=20, fail_attempts=1):
            with pytest.raises(ShardExecutionError) as caught:
                _pipeline(executor=None).run()
        assert caught.value.shard == (20, SHARD)
        assert isinstance(caught.value.__cause__, RuntimeError)
        assert "injected evaluation failure" in str(caught.value.__cause__)

    def test_pool_worker_error_keeps_its_cause(self):
        """The original error crosses the pool's pickle boundary and
        is re-chained as the shard error's cause."""
        with inject_fault("worker-error", start_id=20, fail_attempts=1):
            with pytest.raises(ShardExecutionError) as caught:
                _pipeline(executor="multiprocess", processes=2).run()
        assert caught.value.shard == (20, SHARD)
        assert isinstance(caught.value.__cause__, RuntimeError)
        assert "injected evaluation failure" in str(caught.value.__cause__)

    def test_verify_shard_error_names_its_shard(self, monkeypatch):
        """Directed verification evaluates its fresh cases on a forked
        pool through the same shard loop.  Without a retry policy one
        failed attempt of a verify shard raises, naming that shard, as
        an evaluation shard's does.  No worker outlives it."""
        monkeypatch.setattr(executors_module, "usable_cpus", lambda: 2)
        with inject_fault("worker-error", start_id=500, fail_attempts=1):
            with pytest.raises(ShardExecutionError) as caught:
                _pipeline().verify(1000).run()
        assert caught.value.shard == (500, 250)
        assert isinstance(caught.value.__cause__, RuntimeError)
        assert "injected evaluation failure" in str(caught.value.__cause__)
        assert multiprocessing.active_children() == []

    def test_shard_hang_is_rescheduled_by_the_watchdog(self, reference):
        """A hung worker cannot be interrupted; the sweep abandons the
        pool at the soft deadline and re-sweeps in a fresh one."""
        _assert_hang_is_rescheduled(reference, processes=2)

    def test_one_worker_pool_still_abandons_a_hang(self, reference):
        """A deadline keeps the pool even for one worker: the serial
        loop could not abandon a hung shard."""
        _assert_hang_is_rescheduled(reference, processes=1)

    def test_uniformly_slow_shards_meet_their_deadline(self, reference, monkeypatch):
        """Shards queued behind busy workers are not running yet, so
        their wait must not count against the deadline: slow shards
        that each finish well inside it never trigger a retry.  The
        deadline, 1.5 shard costs, is below the time a shard spends
        queued plus running."""
        evaluate = ShardEvaluator.evaluate

        def slow_evaluate(worker, shard):
            time.sleep(SLOW_SHARD)
            return evaluate(worker, shard)

        monkeypatch.setattr(ShardEvaluator, "evaluate", slow_evaluate)
        result = (
            _pipeline(executor="multiprocess", processes=2)
            .retry(3)
            .timeout(1.5 * SLOW_SHARD)
            .run()
        )
        assert _fingerprint(result) == reference
        assert result.failures == []

    def test_pool_breakage_downgrades_to_serial(self, reference):
        """Two pool-level failures hit the breakage threshold: the run
        finishes on the serial fallback and says so, durably."""
        with inject_fault("pool-broken", fail_attempts=ALWAYS):
            result = _pipeline(executor="multiprocess", processes=2).retry(3).run()
        assert _fingerprint(result) == reference
        kinds = [record.kind for record in result.failures]
        assert kinds == ["pool", "pool", "downgrade"]
        assert result.failures[-1].unit == {"from": "multiprocess", "to": "serial"}
        assert result.timings.executor_downgraded == "serial"

    def test_torn_checkpoint_resumes_to_identity(self, tmp_path, reference):
        """The two-phase scenario: a run killed mid-append leaves a
        torn manifest line; a clean re-run recovers the intact prefix
        and completes byte-identically."""
        path = str(tmp_path / "shards.jsonl")
        with inject_fault("torn-checkpoint", entry_index=1):
            with pytest.raises(InjectedFault, match="mid-append"):
                _pipeline().resume(path).run()
        with open(path) as stream:
            assert not stream.read().endswith("\n")  # genuinely torn

        resumed = _pipeline().resume(path).run()
        assert _fingerprint(resumed) == reference
        with open(path) as stream:
            lines = stream.read().splitlines()
        assert len(lines) == 1 + BUDGET // SHARD
        for line in lines:
            json.loads(line)

    def test_round_crash_is_retried_to_identity(self, adaptive_reference):
        with inject_fault("round-crash", round_index=1, fail_attempts=1):
            result = _adaptive_pipeline().retry(2).run()
        assert _fingerprint(result) == adaptive_reference
        kinds = [record.kind for record in result.failures]
        assert kinds == ["retry"]
        assert result.failures[0].unit["round"] == 1

    def test_timeout_alone_retries_a_round(self, adaptive_reference):
        """A shard timeout without a policy implies the default one for
        rounds too, as it does for shards."""
        with inject_fault("round-crash", round_index=1, fail_attempts=1):
            result = _adaptive_pipeline().timeout(30.0).run()
        assert _fingerprint(result) == adaptive_reference
        assert [record.kind for record in result.failures] == ["retry"]

    def test_round_never_goes_on_without_a_quarantined_shard(self):
        """A round steers the next one: a shard quarantined in it fails
        the round, which is retried and then raises, instead of the loop
        going on with the shard's rows missing."""
        with inject_fault("shard-crash", start_id=20, fail_attempts=ALWAYS):
            with pytest.raises(RuntimeError, match="quarantined shards"):
                _adaptive_pipeline().retry(2).run()

    def test_cell_crash_is_retried_to_identity(self, tmp_path, reference):
        with inject_fault("cell-crash", match="seed=%d" % SEED, fail_attempts=1):
            campaign = _campaign(str(tmp_path)).run()
        assert len(campaign.outcomes) == 1
        assert campaign.outcomes[0].atom_ids == reference[1]
        assert [record.kind for record in campaign.failures] == ["retry"]
        assert not campaign.quarantined_cells


#: The unit of the one shard only a verified pipeline's verify phase has.
VERIFY_SHARD = {"start_id": 750, "count": 250, "phase": "verify"}


def _verified_pipeline():
    """500 cases evaluate in shards 0 and 250; 1,000 fresh cases verify
    in shards 0 to 750, so only a verify shard starts at 750."""
    return SynthesisPipeline().core("ibex").budget(500, seed=SEED).verify(1000)


class TestVerifyFailurePolicy:
    """Verify shards follow the run's retry policy, and their records
    reach the run's failures."""

    @pytest.fixture(scope="class")
    def clean(self):
        result = _verified_pipeline().run()
        return _fingerprint(result), result.verification

    def test_a_failing_attempt_is_retried_to_the_clean_report(self, clean):
        with inject_fault("shard-crash", start_id=750, fail_attempts=1):
            result = _verified_pipeline().retry(2).run()
        assert (_fingerprint(result), result.verification) == clean
        assert [record.kind for record in result.failures] == ["retry"]
        assert result.failures[0].unit == VERIFY_SHARD
        assert multiprocessing.active_children() == []

    def test_an_exhausted_shard_leaves_the_report_and_no_log(self, clean, tmp_path):
        pipeline = _verified_pipeline().retry(2).cache_dir(str(tmp_path))
        with inject_fault("shard-crash", start_id=750, fail_attempts=ALWAYS):
            result = pipeline.run()
        assert _fingerprint(result) == clean[0]
        assert result.verification.test_cases == 750
        assert [record.kind for record in result.failures] == ["retry", "shard"]
        assert result.failures[-1].unit == VERIFY_SHARD
        assert result.timings.shards_quarantined == 0
        # The quarantine log is keyed to the run's corpus: verify
        # records stay out of it.
        assert not os.path.exists(pipeline.quarantine_path())
        assert multiprocessing.active_children() == []

    def test_an_exhausted_verify_shard_is_no_dataset_hole(self, tmp_path):
        """The result and the trace report a quarantined verify shard as
        missing from the report, apart from the evaluation shards the
        dataset lacks."""
        trace = str(tmp_path / "trace.jsonl")
        with inject_fault("shard-crash", start_id=750, fail_attempts=ALWAYS):
            result = _verified_pipeline().retry(2).trace(trace).run()
        assert len(result.dataset) == 500
        events = [r for r in read_trace(trace) if r["kind"] == "failure"]
        assert [event["unit"] for event in events] == [VERIFY_SHARD] * 2
        assert result.quarantined_shards == []
        lines = result.render().splitlines()
        assert not [line for line in lines if line.startswith("quarantined:")]
        assert (
            "verify quarantined: 1 shard(s) dropped from the verification "
            "report after exhausting retries (start_id=750)"
        ) in lines


class TestDeadPoolWorker:
    """A pool worker that dies breaks the run's one pool: the sweep's
    shards are re-swept on its replacement, and an adaptive round solve
    the break cut off is resubmitted, so the run still ends where a
    serial run does, with one ``pool`` failure and no worker left."""

    DYING = 250

    @pytest.fixture
    def dying_worker(self, monkeypatch, tmp_path):
        """The first pool worker to reach shard ``DYING`` exits."""
        parent = os.getpid()
        marker = str(tmp_path / "died")
        inner = executors_module._evaluate_shard_inner

        def dying(worker, shard, attempt):
            if os.getpid() != parent and shard[0] == self.DYING:
                try:
                    os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
                except FileExistsError:
                    pass
                else:
                    os._exit(1)
            return inner(worker, shard, attempt)

        monkeypatch.setattr(executors_module, "_evaluate_shard_inner", dying)
        return marker

    def _assert_survives(self, marker, adaptive):
        def run(executor, **settings):
            pipeline = SynthesisPipeline().core("ibex").budget(1000, seed=SEED)
            if adaptive:
                pipeline.adaptive("coverage", rounds=4)
                settings["shard_size"] = 125
            return pipeline.executor(executor, **settings)

        serial = run("serial").run()
        pooled = run("multiprocess", processes=2).retry(3).run()
        assert os.path.exists(marker)
        assert _fingerprint(pooled) == _fingerprint(serial)
        assert [record.kind for record in pooled.failures] == ["pool"]
        assert multiprocessing.active_children() == []

    def test_one_shot_run_resweeps_on_the_replacement(self, dying_worker):
        self._assert_survives(dying_worker, adaptive=False)

    def test_adaptive_run_keeps_its_solves(self, monkeypatch, dying_worker):
        monkeypatch.setattr(executors_module, "usable_cpus", lambda: 2)
        self._assert_survives(dying_worker, adaptive=True)


class TestErrorClassification:
    """An error raised inside a shard's evaluation keeps its retry
    class through the shard wrapper, on both executors: a deterministic
    error fails the run at once, a transient one is retried and then
    quarantined."""

    FAILING = 20
    ATTEMPTS = 3

    @pytest.fixture
    def failing_shard(self, monkeypatch, tmp_path):
        """Make shard ``FAILING`` raise ``error_class`` on every attempt;
        returns a function counting the attempts (pool workers too)."""
        attempts_file = str(tmp_path / "attempts")
        evaluate = ShardEvaluator.evaluate

        def install(error_class):
            def failing(self, shard):
                if shard[0] != TestErrorClassification.FAILING:
                    return evaluate(self, shard)
                with open(attempts_file, "a") as stream:
                    stream.write("x")
                raise error_class("evaluation failed")

            def attempts():
                with open(attempts_file) as stream:
                    return len(stream.read())

            monkeypatch.setattr(ShardEvaluator, "evaluate", failing)
            return attempts

        return install

    @pytest.mark.parametrize("executor", ["serial", "multiprocess"])
    @pytest.mark.parametrize("error_class", [ValueError, TypeError])
    def test_deterministic_error_fails_on_the_first_attempt(
        self, failing_shard, executor, error_class
    ):
        attempts = failing_shard(error_class)
        with pytest.raises(ShardExecutionError) as caught:
            _pipeline(executor, processes=2).retry(self.ATTEMPTS).run()
        assert caught.value.fatal
        assert caught.value.shard == (self.FAILING, SHARD)
        assert attempts() == 1
        if executor == "serial":
            assert isinstance(caught.value.__cause__, error_class)

    @pytest.mark.parametrize("executor", ["serial", "multiprocess"])
    @pytest.mark.parametrize("error_class", [InjectedFault, OSError])
    def test_transient_error_is_retried_then_quarantined(
        self, failing_shard, executor, error_class
    ):
        attempts = failing_shard(error_class)
        result = _pipeline(executor, processes=2).retry(self.ATTEMPTS).run()
        assert attempts() == self.ATTEMPTS
        kinds = [record.kind for record in result.failures]
        assert kinds == ["retry", "retry", "shard"]
        assert result.quarantined_shards[0].unit == {
            "start_id": self.FAILING,
            "count": SHARD,
        }
        assert len(result.dataset) == BUDGET - SHARD

    # The same two classes at the round and cell seams.  Rounds and
    # cells are retried whole, so the seam raises on every attempt.

    FAILING_CELL = "seed=%d" % (SEED + 1)

    @pytest.fixture
    def failing_seam(self, monkeypatch):
        """Make the ``round`` seam (round 1) or the ``cell`` seam (the
        ``FAILING_CELL`` cell) raise ``error_class`` on every attempt;
        returns the attempt numbers the seam saw."""

        def install(site, error_class):
            module = loop_module if site == "round" else runner_module
            inject = module.maybe_inject
            seen = []

            def failing(at, **context):
                if at == site and (
                    context.get("round_index") == 1
                    or self.FAILING_CELL in context.get("cell", "")
                ):
                    seen.append(context["attempt"])
                    raise error_class("%s failed" % site)
                inject(at, **context)

            monkeypatch.setattr(module, "maybe_inject", failing)
            return seen

        return install

    def _rounds(self, trace_path):
        return _adaptive_pipeline().retry(self.ATTEMPTS).trace(trace_path)

    def _cells(self, tmp_path, trace_path):
        return _campaign(
            str(tmp_path),
            retries=self.ATTEMPTS - 1,
            trace=trace_path,
            seeds=(SEED, SEED + 1),
        )

    @pytest.mark.parametrize("error_class", [ValueError, TypeError])
    def test_deterministic_round_error_fails_on_the_first_attempt(
        self, failing_seam, tmp_path, error_class
    ):
        attempts = failing_seam("round", error_class)
        trace_path = str(tmp_path / "trace.jsonl")
        with pytest.raises(error_class):
            self._rounds(trace_path).run()
        assert attempts == [1]
        assert "retry" not in _failure_kinds(trace_path)

    @pytest.mark.parametrize("error_class", [InjectedFault, OSError])
    def test_transient_round_error_is_retried_then_raises(
        self, failing_seam, tmp_path, error_class
    ):
        attempts = failing_seam("round", error_class)
        trace_path = str(tmp_path / "trace.jsonl")
        with pytest.raises(error_class):
            self._rounds(trace_path).run()
        assert attempts == list(range(1, self.ATTEMPTS + 1))
        assert _failure_kinds(trace_path) == ["retry", "retry", "round"]

    @pytest.mark.parametrize("error_class", [ValueError, TypeError])
    def test_deterministic_cell_error_fails_on_the_first_attempt(
        self, failing_seam, tmp_path, error_class
    ):
        attempts = failing_seam("cell", error_class)
        trace_path = str(tmp_path / "trace.jsonl")
        with pytest.raises(error_class):
            self._cells(tmp_path, trace_path).run()
        assert attempts == [1]
        assert "retry" not in _failure_kinds(trace_path)

    @pytest.mark.parametrize("error_class", [InjectedFault, OSError])
    def test_transient_cell_error_is_retried_then_quarantined(
        self, failing_seam, tmp_path, error_class
    ):
        attempts = failing_seam("cell", error_class)
        trace_path = str(tmp_path / "trace.jsonl")
        campaign = self._cells(tmp_path, trace_path).run()
        assert attempts == list(range(1, self.ATTEMPTS + 1))
        assert _failure_kinds(trace_path) == ["retry", "retry", "cell"]
        assert len(campaign.outcomes) == 1  # the healthy sibling completed
        quarantined = campaign.quarantined_cells
        assert len(quarantined) == 1
        assert self.FAILING_CELL in quarantined[0].unit["cell"]
        assert quarantined[0].attempts == self.ATTEMPTS


def _shard_run(trace_path, fail_attempts):
    with inject_fault("shard-crash", start_id=10, fail_attempts=fail_attempts):
        _pipeline().retry(2).trace(trace_path).run()


def _round_run(trace_path, fail_attempts):
    with inject_fault("round-crash", round_index=1, fail_attempts=fail_attempts):
        _adaptive_pipeline().retry(2).trace(trace_path).run()


def _cell_run(trace_path, fail_attempts):
    directory = os.path.join(os.path.dirname(trace_path), "results")
    with inject_fault(
        "cell-crash", match="seed=%d" % SEED, fail_attempts=fail_attempts
    ):
        _campaign(directory, retries=1, trace=trace_path).run()


class TestRoundPipelineFailures:
    """Rounds in flight on the solve pool fail in round order.  A round
    whose evaluation exhausts its retries, or whose solve raises in a
    worker, raises only after every earlier round has settled and been
    checkpointed, with its own error type.  Work started past a stop,
    failing or still solving, is dropped and its workers terminated.
    No worker outlives the run."""

    BATCH = 20
    FAILING = 2

    def _run(self, tmp_path, width, retry=None, **settings):
        """A 4-round run at ``width``, unless ``settings`` override its
        axes or plan; returns the rounds reported and checkpointed, and
        the result (``None`` when ``run()`` raised, with the error in
        the second slot)."""
        progress = []
        manifest = tmp_path / ("rounds-%d.jsonl" % width)
        axes = dict(
            core="ibex",
            template="riscv-rv32im",
            attacker="retirement-timing",
            generator="coverage",
            rounds=4,
            batch=self.BATCH,
            stop="budget",
            seed=SEED,
        )
        axes.update(settings)
        plan = AdaptivePlan(axes.pop("rounds"), axes.pop("batch"), axes.pop("stop"))
        error = result = None
        try:
            result = AdaptiveLoop(
                PipelineConfig(adaptive=plan, **axes),
                processes=width,
                manifest_path=str(manifest),
                progress=progress.append,
                retry=retry,
            ).run()
        except Exception as raised:
            error = raised
        assert multiprocessing.active_children() == []
        with open(manifest) as stream:
            stored = [json.loads(line) for line in stream][1:]
        rounds = [record.round_index for record in progress]
        assert [entry["round"] for entry in stored] == rounds
        return rounds, error, result

    def _solve_fails_from(self, monkeypatch, first_round, action):
        """Make every solve of round ``first_round`` or later call
        ``action`` first; forked solve workers inherit the patch."""
        solve = ScipyMilpSolver.solve
        batch = self.BATCH

        def patched(solver, instance):
            test_ids = [
                test_id
                for ids in instance.cover_test_ids + instance.fp_test_ids
                for test_id in ids
            ]
            round_index = max(test_ids, default=0) // batch
            if round_index >= first_round:
                action(round_index)
            return solve(solver, instance)

        monkeypatch.setattr(ScipyMilpSolver, "solve", patched)

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_exhausted_round_raises_after_earlier_rounds_settle(self, tmp_path, width):
        with inject_fault(
            "round-crash", round_index=self.FAILING, fail_attempts=ALWAYS
        ):
            rounds, error, _ = self._run(
                tmp_path, width, retry=RetryPolicy(max_attempts=2)
            )
        assert isinstance(error, InjectedFault)
        assert rounds == [0, 1]

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_solve_error_raises_after_earlier_rounds_settle(
        self, monkeypatch, tmp_path, width
    ):
        def fail(round_index):
            raise ValueError("solve failed in round %d" % round_index)

        self._solve_fails_from(monkeypatch, self.FAILING, fail)
        rounds, error, _ = self._run(tmp_path, width)
        assert isinstance(error, ValueError)
        assert str(error) == "solve failed in round %d" % self.FAILING
        assert rounds == [0, 1]
        if width > 1:  # the worker's traceback travels as the cause
            assert "Traceback" in str(error.__cause__)

    #: Full coverage stops this run after round 1 of 6.
    STOPPING = dict(
        core="ibex-dcache",
        template="riscv-mem",
        attacker="cache-state",
        rounds=6,
        batch=40,
        stop="full-coverage",
        seed=7,
    )

    def _slow_second_round(self, monkeypatch, tmp_path, later):
        """Round 1 solves for a second, so that the pipeline starts the
        rounds after it before the stop.  Their solves leave a marker
        file, then call ``later``."""
        batch = self.STOPPING["batch"]

        def act(round_index):
            if round_index == 1:
                time.sleep(1.0)
                return
            (tmp_path / ("solving-%d" % round_index)).touch()
            later(round_index)

        monkeypatch.setattr(self, "BATCH", batch)
        self._solve_fails_from(monkeypatch, 1, act)

    def test_solves_past_a_stop_are_terminated(self, monkeypatch, tmp_path):
        self._slow_second_round(
            monkeypatch, tmp_path, lambda round_index: time.sleep(60.0)
        )
        serial_rounds, _, serial = self._run(tmp_path, 1, **self.STOPPING)
        assert not list(tmp_path.glob("solving-*"))
        started = time.monotonic()
        rounds, error, pooled = self._run(tmp_path, 3, **self.STOPPING)
        assert time.monotonic() - started < 30.0
        assert (tmp_path / "solving-2").exists()  # a solve was cut short
        assert error is None
        assert rounds == serial_rounds == [0, 1]
        assert pooled.stop_reason == serial.stop_reason
        assert pooled.dataset.to_json() == serial.dataset.to_json()

    def test_failures_past_a_stop_are_dropped(self, monkeypatch, tmp_path):
        def fail(round_index):
            raise ValueError("solve failed in round %d" % round_index)

        self._slow_second_round(monkeypatch, tmp_path, fail)
        inject = loop_module.maybe_inject
        evaluated = []

        def recording(site, **context):
            evaluated.append(context["round_index"])
            inject(site, **context)

        monkeypatch.setattr(loop_module, "maybe_inject", recording)
        with inject_fault("round-crash", round_index=3, fail_attempts=ALWAYS):
            rounds, error, result = self._run(tmp_path, 3, **self.STOPPING)
        assert (tmp_path / "solving-2").exists()  # round 2's solve failed
        assert 3 in evaluated  # and round 3's evaluation
        assert error is None
        assert rounds == [0, 1]
        assert result.stop_reason.startswith("full atom coverage")


class TestResilienceCounters:
    """Every granularity counts its retries and quarantines in the
    run's metrics, the same way: one ``resilience.retries`` per retried
    attempt, one ``resilience.quarantines`` per exhausted unit."""

    @pytest.mark.parametrize("run", [_shard_run, _round_run, _cell_run])
    def test_one_retry_counts_once(self, tmp_path, run):
        trace_path = str(tmp_path / "trace.jsonl")
        run(trace_path, fail_attempts=1)
        counters = fold_file(trace_path).metrics.counters()
        assert counters["resilience.retries"] == 1
        assert "resilience.quarantines" not in counters

    @pytest.mark.parametrize("run", [_shard_run, _cell_run])
    def test_an_exhausted_unit_counts_one_quarantine(self, tmp_path, run):
        trace_path = str(tmp_path / "trace.jsonl")
        run(trace_path, fail_attempts=ALWAYS)
        counters = fold_file(trace_path).metrics.counters()
        assert counters["resilience.retries"] == 1
        assert counters["resilience.quarantines"] == 1


class TestQuarantine:
    def test_exhausted_shard_is_quarantined_and_logged(self, tmp_path):
        """A permanently failing shard ends in the FailureLog and the
        result's failure records; the run continues without its rows
        and the incomplete dataset never reaches the dataset cache."""
        pipeline = _pipeline().retry(2).cache_dir(str(tmp_path))
        with inject_fault("shard-crash", start_id=10, fail_attempts=ALWAYS):
            result = pipeline.run()

        assert len(result.dataset) == BUDGET - SHARD
        assert result.timings.shards_quarantined == 1
        quarantined = result.quarantined_shards
        assert len(quarantined) == 1
        assert quarantined[0].unit == {"start_id": 10, "count": SHARD}
        assert quarantined[0].attempts == 2
        assert "quarantined" in result.render()

        log_path = pipeline.quarantine_path()
        assert log_path is not None and os.path.exists(log_path)
        log = FailureLog(log_path, json.loads(open(log_path).readline())["key"])
        assert [record.kind for record in log.records] == ["shard"]

        # The hole must not persist: no dataset was cached.
        assert not [
            name for name in os.listdir(str(tmp_path)) if name.endswith(".json")
        ]

    def test_clean_run_leaves_no_quarantine_file(self, tmp_path):
        pipeline = _pipeline().retry(2).cache_dir(str(tmp_path))
        result = pipeline.run()
        assert result.failures == []
        assert not os.path.exists(pipeline.quarantine_path())

    def test_fatal_fault_is_never_retried(self):
        with inject_fault("shard-crash", start_id=10, fail_attempts=1, fatal=True):
            with pytest.raises(ShardExecutionError) as info:
                _pipeline().retry(3).run()
        assert info.value.fatal
        assert "(start_id=10, count=10)" in str(info.value)

    @staticmethod
    def _round_log_pipeline(directory, monkeypatch):
        """A resumable adaptive pipeline, and the loops its runs build."""
        loops = []
        run = AdaptiveLoop.run

        def capture(loop):
            loops.append(loop)
            return run(loop)

        monkeypatch.setattr(AdaptiveLoop, "run", capture)
        pipeline = _adaptive_pipeline().retry(2).cache_dir(directory).resume(True)
        return pipeline, loops

    def test_exhausted_round_is_logged_under_the_loop_key(self, tmp_path, monkeypatch):
        pipeline, loops = self._round_log_pipeline(str(tmp_path), monkeypatch)
        with inject_fault("round-crash", round_index=0, fail_attempts=ALWAYS):
            with pytest.raises(InjectedFault):
                pipeline.run()
        log_path = pipeline.quarantine_path()
        with open(log_path) as stream:
            header = json.loads(stream.readline())
        assert header["key"] == loops[0].manifest_key()
        log = FailureLog(log_path, header["key"])
        assert len(log) == 1
        record = log.records[0]
        assert record.kind == "round"
        assert record.unit == {"round": 0, "start_id": 0}
        assert record.attempts == 2

    def test_fatal_round_error_leaves_no_record(self, tmp_path, monkeypatch):
        pipeline, _ = self._round_log_pipeline(str(tmp_path), monkeypatch)
        inject = loop_module.maybe_inject

        def fatal(site, **context):
            if site == "round":
                raise FatalInjectedFault("fatal round failure")
            inject(site, **context)

        monkeypatch.setattr(loop_module, "maybe_inject", fatal)
        with pytest.raises(FatalInjectedFault):
            pipeline.run()
        assert not os.path.exists(pipeline.quarantine_path())

    def test_exhausted_cell_is_quarantined_and_logged(self, tmp_path):
        spec = CampaignSpec(
            name="matrix-q",
            cores=("ibex",),
            budgets=(BUDGET,),
            seeds=(SEED, SEED + 1),
            retries=1,
        )
        with inject_fault(
            "cell-crash", match="seed=%d" % (SEED + 1), fail_attempts=ALWAYS
        ):
            campaign = CampaignRunner(
                spec, results_dir=str(tmp_path), executor="serial"
            ).run()
        assert len(campaign.outcomes) == 1  # the healthy sibling completed
        assert len(campaign.quarantined_cells) == 1
        assert campaign.quarantined_cells[0].attempts == 2
        log_path = os.path.join(
            str(tmp_path), "campaigns", "matrix-q.quarantine.jsonl"
        )
        assert os.path.exists(log_path)
        log = FailureLog(log_path, {"campaign": "matrix-q"})
        assert [record.kind for record in log.records] == ["cell"]
        assert "quarantined" in campaign.render()
