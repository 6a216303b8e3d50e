"""The synthesis pipeline: generate → evaluate → synthesize → verify.

:class:`SynthesisPipeline` is the single public entry point to the
toolchain.  Every axis is configured by registry name (or by passing an
instance directly), and :meth:`SynthesisPipeline.run` returns a
:class:`PipelineResult` bundling the evaluated dataset, the synthesis
result, the verification report, and per-phase wall-clock timings.

The run-defining axes live in one frozen
:class:`~repro.pipeline.config.PipelineConfig`, which also derives
every dataset-cache, manifest, quarantine, store and job key; this
module adds the runtime plumbing (executor, resume, retry, callbacks,
trace, store) and drives the phases.
"""

from __future__ import annotations

import os
from typing import Callable, List, Optional, Tuple, Union

from repro.attacker.base import Attacker
from repro.contracts.template import Contract, ContractTemplate
from repro.evaluation.backends import (
    EvaluationExecutor,
    ShardEvaluator,
    ShardProgress,
    bind_executor,
)
from repro.evaluation.backends.executors import default_processes
from repro.evaluation.evaluator import TestCaseEvaluator
from repro.evaluation.parallel import evaluate_parallel
from repro.evaluation.results import EvaluationDataset
from repro.forkpool import ForkPool
from repro.metrics.registry import Metrics, current_metrics, install_metrics
from repro.pipeline.config import (
    AdaptivePlan,
    AttackerLike,
    CoreLike,
    GeneratorLike,
    PipelineConfig,
    RestrictionLike,
    SolverLike,
    StopLike,
    TemplateLike,
    plugin_name,
)
from repro.pipeline.result import PhaseTimings, PipelineResult
from repro.resilience.quarantine import FailureRecord
from repro.resilience.retry import RetryPolicy, effective_policy
from repro.synthesis.solvers import IlpSolver
from repro.synthesis.synthesizer import ContractSynthesizer
from repro.testgen.generator import TestCaseGenerator
from repro.testgen.strategies import GenerationStrategy
from repro.trace.tracer import Tracer, install_tracer
from repro.uarch.core import Core
from repro.verification.checker import (
    SatisfactionReport,
    check_contract_satisfaction,
    check_dataset_satisfaction,
)

#: The plugin axes the ``pipeline`` span and the result name.
_SPAN_AXES = ("core", "attacker", "solver", "template")

ExecutorLike = Union[str, EvaluationExecutor]
ShardCallback = Callable[[ShardProgress], None]


class SynthesisPipeline:
    """Builder-style front end over the whole toolchain.

    Every setter returns ``self`` so configurations read as one chain::

        result = (
            SynthesisPipeline()
            .core("ibex")
            .attacker("retirement-timing")
            .template("riscv-rv32im")
            .budget(2000, seed=1)
            .solver("scipy-milp")
            .run()
        )

    Defaults reproduce the paper's setup: the Ibex-like core, the
    retirement-timing attacker, the RV32IM template, the exact
    scipy-milp backend, and the fast evaluator (which picks its scalar
    or columnar engine itself).  The setters other than the runtime
    plumbing replace fields of :attr:`config`.
    """

    def __init__(self, config: Optional[PipelineConfig] = None):
        #: The run-defining axes; every key derives from it.
        self.config = config if config is not None else PipelineConfig()
        self._cache_dir: Optional[str] = None
        #: ``None`` → the ``multiprocess`` backend; a registry name or
        #: executor instance → that backend.  In-process backends run on
        #: the stack built in setup (see :meth:`_prepare_evaluate`).
        self._executor: Optional[ExecutorLike] = None
        self._processes: Optional[int] = None
        self._shard_size: int = 250
        #: ``None`` → no checkpointing; ``True`` → manifest derived
        #: from the run key; a string → explicit path.
        self._resume: Union[None, bool, str] = None
        self._shard_callback: Optional[ShardCallback] = None
        #: ``None`` → fail fast; a :class:`RetryPolicy` → retry (see
        #: :meth:`retry`).
        self._retry: Optional[RetryPolicy] = None
        #: Per-shard soft deadline in seconds for pool executors.
        self._shard_timeout: Optional[float] = None
        #: A contract store (duck-typed: ``datasets_dir`` +
        #: ``put_result``) that run() persists the outcome into.
        self._store = None
        #: Trace file the run's spans append to (``None`` → no file;
        #: timings still project from the in-memory span collector).
        self._trace_path: Optional[str] = None
        #: Results root the run-history record is appended under.
        self._run_history_dir: Optional[str] = None

    def _set(self, **changes) -> "SynthesisPipeline":
        self.config = self.config.evolve(**changes)
        return self

    # -- builder surface ----------------------------------------------

    def core(self, core: CoreLike) -> "SynthesisPipeline":
        """Target core: a registry name or a :class:`Core` instance."""
        return self._set(core=core)

    def attacker(self, attacker: AttackerLike) -> "SynthesisPipeline":
        """Attacker model: a registry name or an :class:`Attacker`."""
        return self._set(attacker=attacker)

    def solver(self, solver: SolverLike) -> "SynthesisPipeline":
        """ILP backend: a registry name or an :class:`IlpSolver`."""
        return self._set(solver=solver)

    def template(self, template: TemplateLike) -> "SynthesisPipeline":
        """Contract template: a registry name or a built template."""
        return self._set(template=template)

    def restrict(self, restriction: Optional[RestrictionLike]) -> "SynthesisPipeline":
        """Template restriction: a registry name (``"base"``,
        ``"IL+RL+ML+AL"``, ...) or an iterable of
        :class:`LeakageFamily`; ``None`` clears it."""
        return self._set(restriction=restriction)

    def budget(self, count: int, seed: int = 0) -> "SynthesisPipeline":
        """Test-case budget and generator seed."""
        return self._set(budget=count, seed=seed)

    def generator(self, generator: GeneratorLike) -> "SynthesisPipeline":
        """Test-case generation strategy: a ``GENERATOR_REGISTRY`` name
        (``"random"``, ``"mutate"``, ``"coverage"``) or a
        :class:`~repro.testgen.strategies.GenerationStrategy` instance.
        Feedback-driven strategies only receive feedback in adaptive
        mode (:meth:`adaptive`); in a one-shot run they generate their
        fresh-state stream."""
        return self._set(generator=generator)

    def adaptive(
        self,
        generator: Optional[GeneratorLike] = None,
        rounds: int = 8,
        batch: Optional[int] = None,
        stop: StopLike = "contract-stable",
    ) -> "SynthesisPipeline":
        """Run the evaluation phase as an adaptive generate → evaluate
        → steer loop instead of one fixed-budget shot.

        ``rounds`` bounds the loop; ``batch`` sizes each round, and
        defaults to the :meth:`budget` count split evenly across the
        rounds — so the configured budget stays the total case ceiling
        on both the classic and the adaptive path (with an *explicit*
        batch the ceiling is ``rounds * batch`` instead).  ``stop`` is
        a ``STOPPING_REGISTRY`` name, a
        :class:`~repro.adaptive.StoppingRule`, or a sequence of either
        — the loop also always stops when the round budget is
        exhausted.  ``generator`` defaults to the strategy configured
        via :meth:`generator` (i.e. ``"random"`` unless changed).
        The dataset cache is bypassed (a steered corpus is shaped by
        feedback, not reusable by key); use :meth:`resume` for
        round-granularity checkpointing instead."""
        changes = {"adaptive": AdaptivePlan(rounds, batch, stop)}
        if generator is not None:
            changes["generator"] = generator
        return self._set(**changes)

    def fastpath(self, enabled: bool) -> "SynthesisPipeline":
        """Run the fast evaluator (``True``, default) or the scalar
        reference oracle (``False``; the string ``"reference"`` is
        accepted as ``False``).  Both produce byte-identical datasets;
        the fast evaluator picks its engine itself (see
        :mod:`repro.evaluation.evaluator`).
        """
        return self._set(fastpath=enabled)

    def cache_dir(self, directory: Optional[str]) -> "SynthesisPipeline":
        """Cache evaluated datasets under ``directory`` (``None`` off)."""
        self._cache_dir = directory
        return self

    def executor(
        self,
        executor: Optional[ExecutorLike],
        processes: Optional[int] = None,
        shard_size: Optional[int] = None,
    ) -> "SynthesisPipeline":
        """Pick the backend the evaluation phase's shards run on.

        ``executor`` is an ``EXECUTOR_REGISTRY`` name (``"serial"``,
        ``"multiprocess"``, ``"workqueue"``) or an
        :class:`EvaluationExecutor` instance, never mutated; ``None``
        restores the default, ``multiprocess``.  Every in-process
        backend runs on the plugins resolved in setup (instances
        included), which forked workers inherit; only the ``workqueue``
        backend's workers rebuild them, so it needs every plugin
        configured by registry name.  ``processes`` sizes the run's one
        worker pool (default: the usable CPUs, at most 8), on which
        evaluation shards, :meth:`verify` shards and adaptive round
        solves all run, and in an adaptive run how many rounds are in
        flight; ``shard_size`` is the per-shard test-case count
        (default 250).
        """
        self._executor = executor
        if processes is not None:
            self._processes = processes
        if shard_size is not None:
            self._shard_size = shard_size
        return self

    def resume(self, manifest: Union[bool, str] = True) -> "SynthesisPipeline":
        """Checkpoint completed evaluation shards (or adaptive rounds)
        and resume from them.

        ``True`` derives the manifest path from the run key (requires
        :meth:`cache_dir`); a string names the JSONL manifest file
        explicitly; ``False`` disables checkpointing.  Works with any
        executor, the default included.
        """
        self._resume = manifest if manifest is not False else None
        return self

    def retry(
        self,
        policy: Union[None, int, RetryPolicy] = 3,
        backoff: float = 0.0,
    ) -> "SynthesisPipeline":
        """Retry failing evaluation units instead of failing the run.

        ``policy`` is a :class:`~repro.resilience.RetryPolicy`, or an
        integer *total* attempt count (``backoff`` then seeds the
        deterministic exponential delay schedule); ``None`` restores
        fail-fast.  With a policy set, a shard (or adaptive round)
        that fails with a retryable error is re-run per the schedule;
        a shard that exhausts its attempts is quarantined — recorded
        to the :meth:`quarantine_path` failure log and reported in
        ``PipelineResult.failures`` — and the run continues without
        its results.  Retry settings never enter cache or manifest keys:
        a run that survives faults is byte-identical to a clean one.
        One-shot runs retry shards, whatever the executor.
        """
        if policy is None or isinstance(policy, RetryPolicy):
            self._retry = policy
        else:
            self._retry = RetryPolicy(max_attempts=policy, backoff_base=backoff)
        return self

    def timeout(self, shard_seconds: Optional[float]) -> "SynthesisPipeline":
        """Per-shard soft deadline for the ``multiprocess`` pool (seconds).

        A shard running past the deadline is abandoned with its pool's
        workers and rescheduled on the pool's replacement, consuming
        one retry attempt
        (see :meth:`retry`; without one, the default policy applies to
        shards, rounds and cells alike).  ``None`` disables.  Only the
        process pool enforces deadlines, even with one worker: the serial
        backend has no pool to abandon, and the ``workqueue`` backend
        bounds hung workers with its job lease instead.
        """
        if shard_seconds is not None and shard_seconds <= 0:
            raise ValueError("shard timeout must be positive")
        self._shard_timeout = shard_seconds
        return self

    def on_shard(self, callback: Optional[ShardCallback]) -> "SynthesisPipeline":
        """Receive a :class:`ShardProgress` event per completed shard
        (resumed shards first, then evaluated shards as they finish)."""
        self._shard_callback = callback
        return self

    def store(self, contract_store) -> "SynthesisPipeline":
        """Persist the finished contract into a
        :class:`~repro.service.ContractStore` (or anything exposing
        ``datasets_dir`` and ``put_result(cell, result)``), keyed by
        registry names; ``None`` detaches.  The store's dataset
        directory becomes the cache dir unless one was configured, so
        a later identical (or smaller-budget) run is a pure lookup."""
        self._store = contract_store
        if contract_store is not None and self._cache_dir is None:
            self.cache_dir(contract_store.datasets_dir)
        return self

    def trace(self, path: Optional[str]) -> "SynthesisPipeline":
        """Append trace spans to the JSONL file at ``path``: the
        ``pipeline`` and phase spans, shard spans from executor workers
        and round spans from adaptive loops, in the schema campaigns and
        the service share (``repro-synthesize watch`` tails it live).
        ``None`` (the default) disables the file; phase timings come
        from an in-memory span collector either way."""
        self._trace_path = path
        return self

    def run_history(self, directory: Optional[str]) -> "SynthesisPipeline":
        """Append one summary record per completed run to the
        ``runs.jsonl`` index under ``directory`` (the results root),
        feeding ``repro runs list`` / ``repro runs diff``.  ``None``
        (the default) records nothing — campaign cells leave this off
        so a campaign indexes as one run, not one per cell.
        """
        self._run_history_dir = directory
        return self

    def verify(
        self, test_cases: Optional[int] = None, seed: Optional[int] = None
    ) -> "SynthesisPipeline":
        """Verification budget: ``None`` checks the synthesized contract
        against the evaluated dataset; a positive count runs directed
        satisfaction testing on fresh test cases; ``0`` skips.  Fresh
        cases evaluate through the shard loop, on the run's worker pool
        (see :meth:`executor`) when they span more than one shard,
        whatever executor the run's own evaluation uses.

        ``seed`` defaults to the generator seed plus one, so directed
        verification never silently replays the synthesis test cases.
        """
        return self._set(verify=test_cases, verify_seed=seed)

    # -- resolution ----------------------------------------------------

    def resolve_core(self) -> Core:
        return self.config.resolve_core()

    def resolve_attacker(self) -> Attacker:
        return self.config.resolve_attacker()

    def resolve_solver(self) -> IlpSolver:
        return self.config.resolve_solver()

    def resolve_template(self) -> ContractTemplate:
        return self.config.resolve_template()

    def resolve_generator(self, template: ContractTemplate) -> GenerationStrategy:
        return self.config.resolve_generator(template)

    def resolve_restriction(
        self, template: ContractTemplate
    ) -> Tuple[Optional[str], Optional[frozenset]]:
        """``(label, allowed_atom_ids)`` for the configured restriction."""
        return self.config.resolve_restriction(template)

    def synthesizer(self) -> ContractSynthesizer:
        """A :class:`ContractSynthesizer` bound to the resolved template
        and solver (for drivers that sweep synthesis-set prefixes)."""
        return ContractSynthesizer(self.resolve_template(), self.resolve_solver())

    # -- checkpoint files ----------------------------------------------

    def cache_path(self) -> Optional[str]:
        """The dataset cache file for this configuration, or ``None``
        (no :meth:`cache_dir`, an adaptive run, or an instance-configured
        core, attacker or generator; see
        :meth:`~repro.pipeline.config.PipelineConfig.cache_path`)."""
        return self.config.cache_path(self._cache_dir)

    def manifest_path(self) -> Optional[str]:
        """The checkpoint file the run uses, or ``None`` when
        resumption is off: the shard manifest of a one-shot run (keyed
        like the dataset cache file), or the round manifest of an
        adaptive run.  An explicit :meth:`resume` path wins."""
        return self.config.manifest_path(self._cache_dir, self._resume)

    def quarantine_path(self) -> Optional[str]:
        """The quarantine :class:`~repro.resilience.FailureLog` file the
        run uses, or ``None``: only runs with :meth:`retry` or
        :meth:`timeout` quarantine, and the log sits beside the dataset
        cache file (one-shot) or the round manifest (adaptive).  Without
        one, failures still travel on ``PipelineResult.failures``."""
        if effective_policy(self._retry, self._shard_timeout) is None:
            return None
        return self.config.quarantine_path(self._cache_dir, self._resume)

    # -- execution -----------------------------------------------------

    def _prepare_evaluate(
        self, core: Optional[Core] = None, attacker: Optional[Attacker] = None
    ) -> Optional[EvaluationExecutor]:
        """Set up the one-shot evaluate phase: ``None`` on a cache hit,
        else a copy of the configured backend to run.

        Unless an in-process backend instance brought its own stack,
        this builds the generator and evaluator (template fast-path
        compilation included, like the paper's testbench compilation)
        and binds that stack to the copy: forked workers inherit it, and
        the serial shard loop runs on it in this process.  An external
        backend (the work queue) gets no stack: its workers rebuild
        theirs from registry names."""
        cache_path = self.cache_path()
        if cache_path is not None and os.path.exists(cache_path):
            return None
        executor = bind_executor(self._executor or "multiprocess", self._processes)
        if executor.external:
            self.config.require_names("executor")
        elif executor.worker is None:
            template = self.resolve_template()
            executor.worker = ShardEvaluator.from_plugins(
                core or self.resolve_core(),
                template,
                self.resolve_generator(template),
                attacker=attacker or self.resolve_attacker(),
                use_fastpath=self.config.fastpath,
            )
        return executor

    def _evaluate(
        self,
        executor: Optional[EvaluationExecutor],
        stats: dict,
        failures: List[FailureRecord],
        tracer: Optional[Tracer],
    ) -> EvaluationDataset:
        """The evaluate phase: a cache load, or the shard loop of
        ``executor`` (fan-out, checkpointing, retry/quarantine,
        per-shard progress).

        ``stats`` receives the fields of the evaluate phase span: the
        stack's sim/extract seconds (pool workers' included), the shard
        accounting, and the configured executor's name.  Owns the
        dataset cache write: a dataset missing quarantined shards must
        never be cached under the full-budget key, or the hole would
        silently persist across clean re-runs."""
        cache_path = self.cache_path()
        if cache_path is not None:
            current_metrics().counter(
                "dataset.cache.hits" if executor is None else "dataset.cache.misses"
            ).inc()
        if executor is None:
            stats["cache_hit"] = True
            return EvaluationDataset.load(cache_path)
        counters = {"total": 0, "resumed": 0}

        def on_shard(event: ShardProgress) -> None:
            counters["total"] = event.total_shards
            if event.resumed:
                counters["resumed"] += 1
            if self._shard_callback is not None:
                self._shard_callback(event)

        collected: List[FailureRecord] = []
        dataset = evaluate_parallel(
            count=self.config.budget,
            shard_size=self._shard_size,
            executor=executor,
            manifest_path=self.manifest_path(),
            progress=on_shard,
            retry=self._retry,
            shard_timeout=self._shard_timeout,
            failure_log_path=self.quarantine_path(),
            on_failure=collected.append,
            tracer=tracer,
            **self.config.stream_key(),
        )
        quarantined = sum(1 for record in collected if record.kind == "shard")
        downgrades = [r.unit.get("to") for r in collected if r.kind == "downgrade"]
        if executor.worker is not None:
            stats.update(
                simulation_seconds=executor.worker.evaluator.simulation_seconds,
                extraction_seconds=executor.worker.evaluator.extraction_seconds,
            )
        if self._executor is not None:
            stats["executor"] = plugin_name(self._executor)
        stats.update(
            shards_total=counters["total"],
            shards_resumed=counters["resumed"],
            shards_quarantined=quarantined,
            executor_downgraded=downgrades[0] if downgrades else None,
        )
        failures.extend(collected)
        if cache_path is not None and not quarantined:
            dataset.save(cache_path)
        return dataset

    def evaluate_with_stats(
        self,
    ) -> Tuple[EvaluationDataset, Optional[TestCaseEvaluator]]:
        """Generate and evaluate the configured corpus.  Returns
        ``(dataset, evaluator)``; the evaluator carries the phase timers
        of every shard, pool workers' included, and is ``None`` after a
        cache hit or a work-queue run (whose workers keep their own
        timers)."""
        executor = self._prepare_evaluate()
        dataset = self._evaluate(executor, {}, [], None)
        worker = executor.worker if executor is not None else None
        return dataset, worker.evaluator if worker is not None else None

    def evaluate(self) -> EvaluationDataset:
        """Generate and evaluate the configured corpus (cache-aware)."""
        dataset, _evaluator = self.evaluate_with_stats()
        return dataset

    def run(self) -> PipelineResult:
        """Run the full chain and return a :class:`PipelineResult`.

        Every run traces: spans land in an in-memory collector that
        :class:`PhaseTimings` projects from, and — when :meth:`trace`
        configured a path — in the shared JSONL trace file.  A
        file-backed tracer is also installed process-wide for the
        duration of the run so ``@trace_step``/``@profile_step``
        decorated internals (and forked executor workers, which
        inherit the installation) emit into the same file.  (Parallel
        campaign cells in one process share the installation; they
        also share one trace file, so the raced value is identical.)

        The run owns one :class:`~repro.forkpool.ForkPool` of
        ``processes`` workers, forked at its first fan-out.
        """
        tracer = Tracer(self._trace_path, source="pipeline", collector=[])
        previous = install_tracer(tracer) if tracer.enabled else None
        # The metrics registry rides the same installation: file-backed
        # runs get one, unless an outer owner (a campaign, a service
        # worker) already installed a live registry this run should
        # accumulate into.
        previous_metrics = None
        if tracer.enabled and not current_metrics().enabled:
            previous_metrics = install_metrics(Metrics(tracer))
        try:
            result = self._run(tracer)
        finally:
            if previous_metrics is not None:
                current_metrics().flush(final=True)
                install_metrics(previous_metrics)
            if previous is not None:
                install_tracer(previous)
        if self._store is not None:
            self._store.put_result(self.config.cell(), result)
        if self._run_history_dir is not None:
            result.record_run(
                self._run_history_dir, self.config.budget, self.config.seed
            )
        return result

    def _run(self, tracer: Tracer) -> PipelineResult:
        """The chain as a span stream: a ``pipeline`` span around one
        ``phase`` span per phase.  :meth:`PhaseTimings.from_spans`
        projects the timings back out of the tracer's collector, so
        the trace file and the CLI timing table share one
        measurement."""
        config = self.config
        failures: List[FailureRecord] = []
        fields = {axis: config.name(axis) for axis in _SPAN_AXES}
        fields.update(budget=config.budget, seed=config.seed)
        if config.adaptive is not None:
            fields["adaptive"] = True
        adaptive = None
        pool = ForkPool(default_processes(self._processes))
        with pool, tracer.span("pipeline", **fields):
            if config.adaptive is None:
                restriction, dataset, synthesis, verifier = self._run_oneshot(
                    tracer, failures, pool
                )
            else:
                restriction, adaptive, verifier = self._run_adaptive(
                    tracer, failures, pool
                )
                dataset, synthesis = adaptive.dataset, adaptive.synthesis
            with tracer.span("phase", phase="verify"):
                verification = self._verify(synthesis.contract, dataset, verifier)

        return PipelineResult(
            core_name=fields["core"],
            attacker_name=fields["attacker"],
            solver_name=fields["solver"],
            template_name=fields["template"],
            restriction=restriction,
            dataset=dataset,
            synthesis=synthesis,
            verification=verification,
            timings=PhaseTimings.from_spans(tracer.collector),
            generator_name=config.name("generator"),
            adaptive=adaptive,
            failures=failures,
        )

    def _run_oneshot(
        self, tracer: Tracer, failures: List[FailureRecord], pool: ForkPool
    ):
        """The classic fixed-budget setup, evaluate and synthesize
        phases."""
        with tracer.span("phase", phase="setup"):
            core = self.resolve_core()
            template = self.resolve_template()
            attacker = self.resolve_attacker()
            solver = self.resolve_solver()
            verifier = self._verify_stack(template, core, attacker, pool)
            executor = self._prepare_evaluate(core, attacker)
            if executor is not None and executor.worker is not None:
                pool.inherit(executor.worker)

        evaluate_span = tracer.span("phase", phase="evaluate")
        with evaluate_span:
            stats: dict = {}
            dataset = self._evaluate(executor, stats, failures, tracer)
            evaluate_span.add(**stats)

        with tracer.span("phase", phase="synthesize"):
            restriction, allowed_atom_ids = self.resolve_restriction(template)
            synthesis = ContractSynthesizer(template, solver).synthesize(
                dataset, allowed_atom_ids=allowed_atom_ids
            )
        return restriction, dataset, synthesis, verifier

    def _run_adaptive(
        self, tracer: Tracer, failures: List[FailureRecord], pool: ForkPool
    ):
        """The adaptive setup and evaluate phases: rounds run by
        :class:`~repro.adaptive.AdaptiveLoop` (one ``round`` span each,
        through a child tracer).  Evaluation and synthesis interleave,
        so the ``evaluate`` span is the whole loop and the
        ``synthesize`` phase is recorded as the final round's solve,
        which the former already includes."""
        # Imported here: the loop imports repro.pipeline.config.
        from repro.adaptive.loop import AdaptiveLoop

        config = self.config
        with tracer.span("phase", phase="setup"):
            template = self.resolve_template()
            restriction, allowed_atom_ids = self.resolve_restriction(template)
            rounds, batch = config.round_plan()
            loop = AdaptiveLoop(
                core=config.core,
                template=config.template,
                attacker=config.attacker,
                solver=config.solver,
                generator=config.generator,
                rounds=rounds,
                batch=batch,
                stop=config.adaptive.stop,
                seed=config.seed,
                allowed_atom_ids=allowed_atom_ids,
                restriction=restriction,
                use_fastpath=config.fastpath,
                executor=self._executor,
                processes=self._processes,
                shard_size=self._shard_size,
                manifest_path=self.manifest_path(),
                retry=self._retry,
                shard_timeout=self._shard_timeout,
                failure_log_path=self.quarantine_path(),
                on_failure=failures.append,
                tracer=tracer.child("adaptive"),
            )
            verifier = self._verify_stack(loop.template, loop.core, loop.attacker, pool)
            pool.inherit(loop.solver)
            if loop.executor.worker is not None:
                pool.inherit(loop.executor.worker)

        evaluate_span = tracer.span("phase", phase="evaluate")
        with evaluate_span:
            adaptive = loop.run()
            if self._executor is not None:
                evaluate_span.add(executor=plugin_name(self._executor))
        tracer.record("phase", adaptive.synthesis.wall_seconds, phase="synthesize")
        return restriction, adaptive, verifier

    def _verify_stack(
        self, template: ContractTemplate, core: Core, attacker: Attacker, pool: ForkPool
    ) -> Optional[ShardEvaluator]:
        """The stack of directed verification (``verify(n)``, ``n > 0``),
        built in setup so that ``pool`` inherits it, or ``None``."""
        if (self.config.verify or 0) <= 0:
            return None
        seed = self.config.verify_seed
        generator = TestCaseGenerator(
            template, seed=seed if seed is not None else self.config.seed + 1
        )
        verifier = ShardEvaluator.from_plugins(core, template, generator, attacker)
        pool.inherit(verifier)
        return verifier

    def _verify(
        self,
        contract: Contract,
        dataset: EvaluationDataset,
        verifier: Optional[ShardEvaluator],
    ) -> Optional[SatisfactionReport]:
        """The verify phase: the contract against its own dataset
        (``verify`` unset), directed testing on fresh cases on the
        ``verifier`` stack built in setup (``n > 0``), or nothing
        (``0``)."""
        if self.config.verify is None:
            return check_dataset_satisfaction(contract, dataset)
        if verifier is None:
            return None
        return check_contract_satisfaction(
            contract,
            verifier.evaluator.core,
            test_cases=self.config.verify,
            seed=verifier.generator.seed,
            attacker=verifier.evaluator.attacker,
            generator=verifier.generator,
        )
