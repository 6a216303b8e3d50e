"""The synthesis pipeline: generate → evaluate → synthesize → verify.

:class:`SynthesisPipeline` is the single public entry point to the
toolchain.  Every axis is configured by registry name (or by passing an
instance directly), and :meth:`SynthesisPipeline.run` returns a
:class:`PipelineResult` bundling the evaluated dataset, the synthesis
result, the verification report, and per-phase wall-clock timings.

The pipeline also owns dataset caching: evaluated corpora are keyed by
core, template, attacker, seed, budget, and extraction engine, so two
pipelines that would produce different datasets can never collide on a
cache file.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Iterable, List, Optional, Tuple, Union

from repro.adaptive.loop import AdaptiveLoop, AdaptiveResult, derive_round_plan
from repro.adaptive.stopping import StoppingRule
from repro.attacker import ATTACKER_REGISTRY
from repro.attacker.base import Attacker
from repro.contracts.atoms import LeakageFamily
from repro.contracts.riscv_template import (
    RESTRICTION_REGISTRY,
    TEMPLATE_REGISTRY,
    restriction_label,
)
from repro.contracts.template import Contract, ContractTemplate, template_digest
from repro.evaluation.backends import EvaluationExecutor, ShardProgress
from repro.evaluation.evaluator import TestCaseEvaluator
from repro.evaluation.parallel import evaluate_parallel
from repro.evaluation.results import EvaluationDataset
from repro.resilience.quarantine import FailureRecord
from repro.resilience.retry import RetryPolicy
from repro.synthesis import SOLVER_REGISTRY
from repro.metrics.registry import Metrics, current_metrics, install_metrics
from repro.trace.tracer import Tracer, install_tracer
from repro.synthesis.solvers import IlpSolver
from repro.synthesis.synthesizer import ContractSynthesizer, SynthesisResult
from repro.testgen.strategies import GENERATOR_REGISTRY, GenerationStrategy
from repro.uarch import CORE_REGISTRY
from repro.uarch.core import Core
from repro.verification.checker import (
    SatisfactionReport,
    check_contract_satisfaction,
    check_dataset_satisfaction,
)

#: Configuration values may be registry names or ready-made instances.
CoreLike = Union[str, Core]
AttackerLike = Union[str, Attacker]
SolverLike = Union[str, IlpSolver]
TemplateLike = Union[str, ContractTemplate]
RestrictionLike = Union[str, Iterable[LeakageFamily]]
ExecutorLike = Union[str, EvaluationExecutor]
GeneratorLike = Union[str, GenerationStrategy]
ShardCallback = Callable[[ShardProgress], None]


@dataclass
class PhaseTimings:
    """Wall-clock seconds per pipeline phase (Table III's columns).

    Since the observability layer landed, a run's timings are a
    *projection of its trace span stream* (:meth:`from_spans`): the
    pipeline emits ``phase`` spans and the phase timers fall out of
    them, so CLI tables, trace files, and bench accounting can never
    disagree.  The field names and semantics predate the trace layer
    and are kept byte-compatible.
    """

    #: Core/template/generator/evaluator construction (the paper's
    #: "testbench compilation" phase).
    setup_seconds: float = 0.0
    #: The whole generate+evaluate phase (zero on a cache hit).
    evaluation_seconds: float = 0.0
    #: Simulation and atom-extraction shares of the evaluation phase,
    #: from the evaluator's accumulators.
    simulation_seconds: float = 0.0
    extraction_seconds: float = 0.0
    synthesis_seconds: float = 0.0
    verification_seconds: float = 0.0
    total_seconds: float = 0.0
    #: Whether the dataset came from the cache (timers then exclude
    #: simulation/extraction).
    cache_hit: bool = False
    #: Executor backend that ran the evaluation phase (``None`` for the
    #: in-process evaluator), with its per-shard accounting: how many
    #: shards the plan had and how many were resumed from a checkpoint
    #: manifest instead of re-evaluated.
    executor_name: Optional[str] = None
    shards_total: int = 0
    shards_resumed: int = 0
    #: Shards that exhausted their retries and were quarantined (the
    #: dataset is missing their rows).
    shards_quarantined: int = 0
    #: Backend the executor fallback chain downgraded to (``None``
    #: when the configured backend survived the whole run).
    executor_downgraded: Optional[str] = None

    @classmethod
    def from_spans(cls, records: Iterable[dict]) -> "PhaseTimings":
        """Project phase timings out of a trace span stream.

        Consumes completed span records (the ones carrying
        ``seconds``): the ``pipeline`` span supplies the total, and
        each ``phase`` span supplies its phase timer — the ``evaluate``
        span additionally carries the cache/executor/sim-extract detail
        fields.  Begin records and event records pass through
        untouched, so the whole of a run's trace stream (or its
        in-memory collector) can be fed directly.
        """
        timings = cls()
        for record in records:
            if "seconds" not in record:
                continue
            kind = record.get("kind")
            if kind == "pipeline":
                timings.total_seconds = record["seconds"]
            elif kind == "phase":
                phase = record.get("phase")
                if phase == "setup":
                    timings.setup_seconds = record["seconds"]
                elif phase == "evaluate":
                    timings.evaluation_seconds = record["seconds"]
                    timings.cache_hit = bool(record.get("cache_hit", False))
                    timings.simulation_seconds = record.get(
                        "simulation_seconds", 0.0
                    )
                    timings.extraction_seconds = record.get(
                        "extraction_seconds", 0.0
                    )
                    timings.executor_name = record.get("executor")
                    timings.shards_total = record.get("shards_total", 0)
                    timings.shards_resumed = record.get("shards_resumed", 0)
                    timings.shards_quarantined = record.get(
                        "shards_quarantined", 0
                    )
                    timings.executor_downgraded = record.get(
                        "executor_downgraded"
                    )
                elif phase == "synthesize":
                    timings.synthesis_seconds = record["seconds"]
                elif phase == "verify":
                    timings.verification_seconds = record["seconds"]
        return timings

    def render(self) -> str:
        if self.cache_hit:
            evaluate_detail = " (cached)"
        elif self.executor_name is not None:
            evaluate_detail = " (executor %s, %d shards, %d resumed%s%s)" % (
                self.executor_name,
                self.shards_total,
                self.shards_resumed,
                ", %d quarantined" % self.shards_quarantined
                if self.shards_quarantined
                else "",
                ", downgraded to %s" % self.executor_downgraded
                if self.executor_downgraded
                else "",
            )
        else:
            evaluate_detail = " (sim %.3fs, extract %.3fs)" % (
                self.simulation_seconds,
                self.extraction_seconds,
            )
        parts = [
            "setup %.3fs" % self.setup_seconds,
            "evaluate %.3fs%s" % (self.evaluation_seconds, evaluate_detail),
            "synthesize %.3fs" % self.synthesis_seconds,
            "verify %.3fs" % self.verification_seconds,
            "total %.3fs" % self.total_seconds,
        ]
        return ", ".join(parts)


@dataclass
class PipelineResult:
    """Everything one pipeline run produced."""

    core_name: str
    attacker_name: str
    solver_name: str
    template_name: str
    restriction: Optional[str]
    dataset: EvaluationDataset
    synthesis: SynthesisResult
    verification: Optional[SatisfactionReport]
    timings: PhaseTimings
    #: Generation strategy that produced the dataset.
    generator_name: str = "random"
    #: Per-round diagnostics when the run was adaptive
    #: (:meth:`SynthesisPipeline.adaptive`); ``None`` for one-shot runs.
    adaptive: Optional[AdaptiveResult] = None
    #: Structured failure records from the fault-tolerant execution
    #: layer (retries, quarantined shards, executor downgrades); empty
    #: for clean runs and runs without retry/timeout configured.
    failures: List[FailureRecord] = field(default_factory=list)

    @property
    def quarantined_shards(self) -> List[FailureRecord]:
        """The shards that exhausted retries and were quarantined."""
        return [record for record in self.failures if record.kind == "shard"]

    @property
    def contract(self) -> Contract:
        return self.synthesis.contract

    @property
    def atom_count(self) -> int:
        return self.synthesis.atom_count

    @property
    def false_positives(self) -> int:
        return self.synthesis.false_positives

    @property
    def satisfied(self) -> Optional[bool]:
        return self.verification.satisfied if self.verification else None

    def render(self) -> str:
        lines = [
            "pipeline: core=%s attacker=%s solver=%s template=%s%s%s"
            % (
                self.core_name,
                self.attacker_name,
                self.solver_name,
                self.template_name,
                " restriction=%s" % self.restriction if self.restriction else "",
                " generator=%s" % self.generator_name
                if self.generator_name != "random"
                else "",
            ),
            "dataset: %d test cases, %d attacker distinguishable"
            % (len(self.dataset), len(self.dataset.distinguishable)),
            "contract: %d atoms, %d false positives (%s%s)"
            % (
                self.atom_count,
                self.false_positives,
                self.synthesis.solver_result.solver_name,
                ", optimal" if self.synthesis.solver_result.optimal else "",
            ),
        ]
        if self.verification is not None:
            lines.append(
                "verification: %s (%d/%d distinguishable cases covered)"
                % (
                    "SATISFIED" if self.verification.satisfied else "VIOLATED",
                    self.verification.covered,
                    self.verification.attacker_distinguishable,
                )
            )
        if self.adaptive is not None:
            lines.append(self.adaptive.render())
        quarantined = self.quarantined_shards
        if quarantined:
            lines.append(
                "quarantined: %d shard(s) dropped after exhausting retries (%s)"
                % (
                    len(quarantined),
                    ", ".join(
                        "start_id=%s" % record.unit.get("start_id")
                        for record in quarantined
                    ),
                )
            )
        lines.append("timings: %s" % self.timings.render())
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "PipelineResult(core=%s, %d cases, %d atoms)" % (
            self.core_name,
            len(self.dataset),
            self.atom_count,
        )


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
    scipy-milp backend, and the compiled extraction fast path.
    """

    def __init__(self):
        self._core: CoreLike = "ibex"
        self._attacker: AttackerLike = "retirement-timing"
        self._solver: SolverLike = "scipy-milp"
        self._template: TemplateLike = "riscv-rv32im"
        self._restriction: Optional[RestrictionLike] = None
        self._generator: GeneratorLike = "random"
        #: ``None`` → the classic one-shot run; a dict → adaptive mode
        #: (``rounds``, ``batch``, ``stop``), executed by
        #: :class:`~repro.adaptive.AdaptiveLoop`.
        self._adaptive: Optional[dict] = None
        self._count: int = 1000
        self._seed: int = 0
        self._use_fastpath: bool = True
        self._cache_dir: Optional[str] = None
        self._progress_every: Optional[int] = None
        #: ``None`` → evaluate in-process; a registry name or executor
        #: instance → fan evaluation out in shards through the backend.
        self._executor: Optional[ExecutorLike] = None
        self._processes: Optional[int] = None
        self._shard_size: int = 250
        #: ``None`` → no checkpointing; ``True`` → manifest derived
        #: from the dataset cache key; a string → explicit path.
        self._resume: Union[None, bool, str] = None
        self._shard_callback: Optional[ShardCallback] = None
        #: ``None`` → fail fast (the historical behavior); a
        #: :class:`RetryPolicy` → retry failing shards (and adaptive
        #: rounds), quarantining shards that exhaust their attempts.
        self._retry: Optional[RetryPolicy] = None
        #: Per-shard soft deadline in seconds for pool executors.
        self._shard_timeout: Optional[float] = None
        #: ``None`` → verify against the evaluated dataset (free);
        #: ``n > 0`` → directed satisfaction testing with fresh cases;
        #: ``0`` → skip verification.
        self._verify_budget: Optional[int] = None
        self._verify_seed: Optional[int] = None
        #: Memoized name-resolved template, so cache keys, run(), and
        #: synthesizer() all see the same instance.
        self._resolved_template: Optional[ContractTemplate] = None
        #: A contract store (duck-typed: ``datasets_dir`` +
        #: ``put_result``) that run() persists the outcome into.
        self._store = None
        #: Trace file the run's spans append to (``None`` → no file;
        #: timings still project from the in-memory span collector).
        self._trace_path: Optional[str] = None
        #: Results root the run-history record is appended under.
        self._run_history_dir: Optional[str] = None

    # -- builder surface ----------------------------------------------

    def core(self, core: CoreLike) -> "SynthesisPipeline":
        """Target core: a registry name or a :class:`Core` instance."""
        self._core = core
        return self

    def attacker(self, attacker: AttackerLike) -> "SynthesisPipeline":
        """Attacker model: a registry name or an :class:`Attacker`."""
        self._attacker = attacker
        return self

    def solver(self, solver: SolverLike) -> "SynthesisPipeline":
        """ILP backend: a registry name or an :class:`IlpSolver`."""
        self._solver = solver
        return self

    def template(self, template: TemplateLike) -> "SynthesisPipeline":
        """Contract template: a registry name or a built template."""
        self._template = template
        self._resolved_template = None
        return self

    def restrict(self, restriction: Optional[RestrictionLike]) -> "SynthesisPipeline":
        """Template restriction: a registry name (``"base"``,
        ``"IL+RL+ML+AL"``, ...) or an iterable of
        :class:`LeakageFamily`; ``None`` clears it."""
        self._restriction = restriction
        return self

    def budget(self, count: int, seed: int = 0) -> "SynthesisPipeline":
        """Test-case budget and generator seed."""
        if count < 0:
            raise ValueError("budget count must be non-negative")
        self._count = count
        self._seed = seed
        return self

    def generator(self, generator: GeneratorLike) -> "SynthesisPipeline":
        """Test-case generation strategy: a ``GENERATOR_REGISTRY`` name
        (``"random"``, ``"mutate"``, ``"coverage"``) or a
        :class:`~repro.testgen.strategies.GenerationStrategy` instance.
        Feedback-driven strategies only receive feedback in adaptive
        mode (:meth:`adaptive`); in a one-shot run they generate their
        fresh-state stream."""
        self._generator = generator
        return self

    def adaptive(
        self,
        generator: Optional[GeneratorLike] = None,
        rounds: int = 8,
        batch: Optional[int] = None,
        stop: Union[None, str, StoppingRule, tuple, list] = "contract-stable",
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
        if generator is not None:
            self._generator = generator
        self._adaptive = {"rounds": rounds, "batch": batch, "stop": stop}
        return self

    def _adaptive_plan(self) -> Tuple[int, int]:
        """The adaptive ``(rounds, batch)`` actually run — see
        :func:`repro.adaptive.loop.derive_round_plan`."""
        return derive_round_plan(
            self._adaptive["rounds"], self._adaptive["batch"], self._count
        )

    def fastpath(self, enabled: bool) -> "SynthesisPipeline":
        """Run the fast evaluator (``True``, default) or the scalar
        reference oracle (``False``; the string ``"reference"`` is
        accepted as ``False``).  Both produce byte-identical datasets;
        the fast evaluator picks its engine itself (see
        :mod:`repro.evaluation.evaluator`).
        """
        if enabled == "reference":
            enabled = False
        if not isinstance(enabled, bool):
            raise ValueError(
                "fastpath takes True, False or 'reference', not %r" % (enabled,)
            )
        self._use_fastpath = enabled
        return self

    def cache_dir(self, directory: Optional[str]) -> "SynthesisPipeline":
        """Cache evaluated datasets under ``directory`` (``None`` off)."""
        self._cache_dir = directory
        return self

    def progress(self, every: Optional[int]) -> "SynthesisPipeline":
        """Print evaluation progress every ``every`` test cases."""
        self._progress_every = every
        return self

    def executor(
        self,
        executor: Optional[ExecutorLike],
        processes: Optional[int] = None,
        shard_size: Optional[int] = None,
    ) -> "SynthesisPipeline":
        """Run the evaluation phase through a sharded executor backend.

        ``executor`` is an ``EXECUTOR_REGISTRY`` name (``"serial"``,
        ``"multiprocess"``, ``"workqueue"``) or an
        :class:`EvaluationExecutor` instance; ``None`` restores the
        in-process evaluator.  ``processes`` sizes the worker pool and
        ``shard_size`` the per-shard test-case count (default 250).
        """
        self._executor = executor
        if processes is not None:
            self._processes = processes
        if shard_size is not None:
            self._shard_size = shard_size
        return self

    def resume(self, manifest: Union[bool, str] = True) -> "SynthesisPipeline":
        """Checkpoint completed evaluation shards and resume from them.

        ``True`` derives the manifest path from the dataset cache key
        (requires :meth:`cache_dir`); a string names the JSONL manifest
        file explicitly; ``False`` disables checkpointing.  Only the
        executor path shards its work, so ``resume`` implies
        :meth:`executor` (defaulting to ``"multiprocess"`` if none was
        chosen).
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
        its rows.  Retry settings never enter cache or manifest keys:
        a run that survives faults is byte-identical to a clean one.
        Shard-granularity retry runs through the executor path, so
        ``retry`` implies :meth:`executor` like :meth:`resume` does.
        """
        if policy is None or isinstance(policy, RetryPolicy):
            self._retry = policy
        else:
            self._retry = RetryPolicy(max_attempts=policy, backoff_base=backoff)
        return self

    def timeout(self, shard_seconds: Optional[float]) -> "SynthesisPipeline":
        """Per-shard soft deadline for the ``multiprocess`` pool (seconds).

        A shard running past the deadline is abandoned with its pool
        and rescheduled in a fresh one, consuming one retry attempt
        (see :meth:`retry`; the default policy applies when only a
        timeout is configured).  ``None`` disables.  Only the process
        pool enforces deadlines, even with one worker: the serial
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
        ``datasets_dir`` and ``put_result(cell, result)``).

        The store's dataset directory becomes the pipeline cache dir
        unless one was configured explicitly, so datasets and contract
        land side by side — and a later identical (or smaller-budget)
        run through the contract service is a pure lookup.  Requires
        name-addressed plugins (the store keys by registry names);
        ``None`` detaches.
        """
        self._store = contract_store
        if contract_store is not None and self._cache_dir is None:
            self.cache_dir(contract_store.datasets_dir)
        return self

    def trace(self, path: Optional[str]) -> "SynthesisPipeline":
        """Append structured trace spans to the JSONL file at ``path``.

        The run emits ``pipeline`` and per-phase spans (plus shard
        spans from executor workers and round spans from adaptive
        loops) through :class:`repro.trace.Tracer`; campaigns and the
        service share the same schema, so one file interleaves every
        layer and ``repro-synthesize watch`` can tail it live.
        ``None`` (the default) disables the file; phase timings are
        projected from an in-memory span collector either way, at zero
        file-I/O cost.
        """
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
        satisfaction testing on fresh test cases; ``0`` skips.

        ``seed`` defaults to the generator seed plus one, so directed
        verification never silently replays the synthesis test cases.
        """
        self._verify_budget = test_cases
        self._verify_seed = seed
        return self

    # -- resolution ----------------------------------------------------

    def core_name(self) -> str:
        return self._core if isinstance(self._core, str) else self._core.name

    def attacker_name(self) -> str:
        return (
            self._attacker if isinstance(self._attacker, str) else self._attacker.name
        )

    def solver_name(self) -> str:
        return self._solver if isinstance(self._solver, str) else self._solver.name

    def template_name(self) -> str:
        return (
            self._template if isinstance(self._template, str) else self._template.name
        )

    def generator_name(self) -> str:
        return (
            self._generator
            if isinstance(self._generator, str)
            else self._generator.name
        )

    def resolve_core(self) -> Core:
        if isinstance(self._core, str):
            return CORE_REGISTRY.create(self._core)
        return self._core

    def resolve_attacker(self) -> Attacker:
        if isinstance(self._attacker, str):
            return ATTACKER_REGISTRY.create(self._attacker)
        return self._attacker

    def resolve_solver(self) -> IlpSolver:
        if isinstance(self._solver, str):
            return SOLVER_REGISTRY.create(self._solver)
        return self._solver

    def resolve_template(self) -> ContractTemplate:
        if not isinstance(self._template, str):
            return self._template
        if self._resolved_template is None:
            self._resolved_template = TEMPLATE_REGISTRY.create(self._template)
        return self._resolved_template

    def resolve_generator(self, template: ContractTemplate) -> GenerationStrategy:
        if isinstance(self._generator, str):
            return GENERATOR_REGISTRY.create(
                self._generator, template, seed=self._seed
            )
        return self._generator

    def resolve_restriction(
        self, template: ContractTemplate
    ) -> Tuple[Optional[str], Optional[frozenset]]:
        """``(label, allowed_atom_ids)`` for the configured restriction."""
        if self._restriction is None:
            return None, None
        if isinstance(self._restriction, str):
            families = tuple(RESTRICTION_REGISTRY.create(self._restriction))
        else:
            families = tuple(self._restriction)
        return restriction_label(families), template.ids_by_family(families)

    def synthesizer(self) -> ContractSynthesizer:
        """A :class:`ContractSynthesizer` bound to the resolved template
        and solver (for drivers that sweep synthesis-set prefixes)."""
        return ContractSynthesizer(self.resolve_template(), self.resolve_solver())

    # -- dataset caching -----------------------------------------------

    def cache_path(self) -> Optional[str]:
        """The dataset cache file for this configuration, or ``None``.

        The key covers everything that changes the evaluated dataset:
        core, template, attacker, generator strategy, seed, budget, and
        (defensively) the extraction engine.  Historically the
        attacker was omitted, so switching attackers silently reused
        stale datasets; the generator entered with the strategy
        registry — two strategies produce different corpora from the
        same seed, so cached corpora must never be conflated.

        Caching requires the core, attacker, and generator to be
        configured *by registry name*: an instance (e.g.
        ``IbexCore(IbexConfig(dcache=True))``, or a strategy carrying
        feedback state) may carry configuration its ``name`` attribute
        does not express, so keying on it could serve a stale dataset.
        Templates may be instances — their key includes a digest of the
        atom list, which fully determines extraction.

        Adaptive runs bypass the dataset cache entirely (a steered
        corpus is shaped by round feedback, not addressable by a static
        key) and checkpoint rounds instead (:meth:`resume`).
        """
        if self._cache_dir is None or self._adaptive is not None:
            return None
        if not isinstance(self._core, str) or not isinstance(self._attacker, str):
            return None
        if not isinstance(self._generator, str):
            return None
        template = self.resolve_template()
        digest = template_digest(template)
        # The default strategy is keyed by absence, so caches written
        # before generators existed (all random) stay valid.
        generator = "" if self._generator == "random" else "-g%s" % self._generator
        return os.path.join(
            self._cache_dir,
            "%s-%s-%s-%s%s-seed%d-n%d%s.json"
            % (
                self._core,
                template.name,
                digest,
                self._attacker,
                generator,
                self._seed,
                self._count,
                "" if self._use_fastpath else "-ref",
            ),
        )

    def manifest_path(self) -> Optional[str]:
        """The shard-manifest (checkpoint) file for this configuration,
        or ``None`` when resumption is off.

        An explicit :meth:`resume` path wins; otherwise the path is the
        dataset cache file with a ``.shards.jsonl`` suffix, so manifest
        and cached dataset share one key."""
        if self._resume is None:
            return None
        if isinstance(self._resume, str):
            return self._resume
        cache_path = self.cache_path()
        if cache_path is None:
            raise ValueError(
                "resume(True) derives the manifest from the dataset cache "
                "key: configure cache_dir() and name-based plugins, or "
                "pass an explicit manifest path"
            )
        return os.path.splitext(cache_path)[0] + ".shards.jsonl"

    def quarantine_path(self) -> Optional[str]:
        """The quarantine :class:`~repro.resilience.FailureLog` file
        for this configuration, or ``None``.

        Derived from the dataset cache key with a ``.quarantine.jsonl``
        suffix, like :meth:`manifest_path` — so the quarantined-shard
        record sits next to the manifest it punched a hole in.  Without
        a cache key (no :meth:`cache_dir`, or instance-configured
        plugins) failures still travel on ``PipelineResult.failures``;
        only the durable log is skipped.
        """
        if self._retry is None and self._shard_timeout is None:
            return None
        cache_path = self.cache_path()
        if cache_path is None:
            return None
        return os.path.splitext(cache_path)[0] + ".quarantine.jsonl"

    def adaptive_manifest_path(self) -> Optional[str]:
        """The adaptive round-manifest file, or ``None`` when
        resumption is off.  An explicit :meth:`resume` path wins;
        otherwise the path is derived from the cache directory and the
        loop's identity axes (the ``AdaptiveManifest`` header key — not
        the file name — is what actually binds the checkpoint)."""
        if self._resume is None:
            return None
        if isinstance(self._resume, str):
            return self._resume
        if self._cache_dir is None or not (
            isinstance(self._core, str)
            and isinstance(self._attacker, str)
            and isinstance(self._generator, str)
        ):
            raise ValueError(
                "resume(True) derives the round manifest from the loop "
                "identity: configure cache_dir() and name-based plugins, "
                "or pass an explicit manifest path"
            )
        template = self.resolve_template()
        restriction_name, _allowed = self.resolve_restriction(template)
        # Every identity axis of the manifest key appears in the name:
        # two configurations with different keys must not collide on
        # one file (the header check would reject the second as a
        # different loop instead of checkpointing it separately).
        return os.path.join(
            self._cache_dir,
            "%s-%s-%s-%s-g%s-%s%s-seed%d-b%d%s.rounds.jsonl"
            % (
                self._core,
                template.name,
                template_digest(template),
                self._attacker,
                self._generator,
                self.solver_name(),
                "-r%s" % restriction_name if restriction_name else "",
                self._seed,
                self._adaptive_plan()[1] if self._adaptive else 0,
                "" if self._use_fastpath else "-ref",
            ),
        )

    # -- execution -----------------------------------------------------

    def _effective_executor(self) -> Optional[ExecutorLike]:
        """The executor to use, with ``resume`` (and shard-granularity
        ``retry``/``timeout``) implying one."""
        if self._executor is None and (
            self._resume is not None
            or self._retry is not None
            or self._shard_timeout is not None
        ):
            return "multiprocess"
        return self._executor

    def _evaluate_sharded(
        self,
        executor: ExecutorLike,
        stats: Optional[dict] = None,
        failures: Optional[List[FailureRecord]] = None,
        tracer: Optional[Tracer] = None,
    ) -> EvaluationDataset:
        """The executor-backed evaluation phase (shard fan-out,
        checkpointing, retry/quarantine, per-shard progress).

        ``stats``, when given, receives the executor accounting fields
        of the evaluate phase span (``executor``, ``shards_total``,
        ``shards_resumed``, ``shards_quarantined``,
        ``executor_downgraded``) — the span-era replacement for
        mutating :class:`PhaseTimings` directly.

        Owns the dataset cache write: a dataset missing quarantined
        shards must never be cached under the full-budget key, or the
        hole would silently persist across clean re-runs."""
        if not (
            isinstance(self._core, str)
            and isinstance(self._attacker, str)
            and isinstance(self._template, str)
            and isinstance(self._generator, str)
        ):
            raise ValueError(
                "executor backends rebuild plugins by registry name "
                "inside each worker: configure core, attacker, template, "
                "and generator by name when using .executor()/.resume()"
            )
        counters = {"total": 0, "resumed": 0}

        def on_shard(event: ShardProgress) -> None:
            counters["total"] = event.total_shards
            if event.resumed:
                counters["resumed"] += 1
            if self._progress_every:
                print(
                    "evaluated %d/%d test cases (shard %d/%d%s)"
                    % (
                        event.completed_cases,
                        event.total_cases,
                        event.completed_shards,
                        event.total_shards,
                        ", resumed" if event.resumed else "",
                    )
                )
            if self._shard_callback is not None:
                self._shard_callback(event)

        collected: List[FailureRecord] = []
        dataset = evaluate_parallel(
            self._core,
            self._count,
            seed=self._seed,
            processes=self._processes,
            shard_size=self._shard_size,
            use_fastpath=self._use_fastpath,
            template_name=self._template,
            attacker_name=self._attacker,
            executor=executor,
            manifest_path=self.manifest_path(),
            progress=on_shard,
            generator_name=self._generator,
            retry=self._retry,
            shard_timeout=self._shard_timeout,
            failure_log_path=self.quarantine_path(),
            on_failure=collected.append,
            tracer=tracer,
        )
        quarantined = sum(1 for record in collected if record.kind == "shard")
        if stats is not None:
            stats["executor"] = (
                executor if isinstance(executor, str) else executor.name
            )
            stats["shards_total"] = counters["total"]
            stats["shards_resumed"] = counters["resumed"]
            stats["shards_quarantined"] = quarantined
            stats["executor_downgraded"] = next(
                (
                    record.unit.get("to")
                    for record in collected
                    if record.kind == "downgrade"
                ),
                None,
            )
        if failures is not None:
            failures.extend(collected)
        cache_path = self.cache_path()
        if cache_path is not None and not quarantined:
            dataset.save(cache_path)
        return dataset

    def evaluate_with_stats(
        self,
    ) -> Tuple[EvaluationDataset, Optional[TestCaseEvaluator]]:
        """Generate and evaluate the configured corpus.

        Returns ``(dataset, evaluator)``; the evaluator carries the
        phase timers and is ``None`` when the dataset was loaded from
        the cache or evaluated through an executor backend (whose
        workers keep their own timers, and whose shard accounting
        :meth:`run` reports through the evaluate phase span).
        """
        cache_path = self.cache_path()
        if cache_path is not None:
            hit = os.path.exists(cache_path)
            current_metrics().counter(
                "dataset.cache.hits" if hit else "dataset.cache.misses"
            ).inc()
            if hit:
                return EvaluationDataset.load(cache_path), None
        executor = self._effective_executor()
        if executor is not None:
            # The sharded path owns the cache write (quarantined
            # datasets must not be cached).
            return self._evaluate_sharded(executor), None
        template = self.resolve_template()
        generator = self.resolve_generator(template)
        evaluator = TestCaseEvaluator(
            self.resolve_core(),
            template,
            attacker=self.resolve_attacker(),
            use_fastpath=self._use_fastpath,
        )
        dataset = evaluator.evaluate_many(
            generator.iter_generate(self._count),
            progress_every=self._progress_every,
        )
        if cache_path is not None:
            dataset.save(cache_path)
        return dataset, evaluator

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
            if self._adaptive is not None:
                result = self._run_adaptive(tracer)
            else:
                result = self._run_oneshot(tracer)
        finally:
            if previous_metrics is not None:
                current_metrics().flush(final=True)
                install_metrics(previous_metrics)
            if previous is not None:
                install_tracer(previous)
        if self._store is not None:
            self._store.put_result(self._store_cell(), result)
        if self._run_history_dir is not None:
            self._record_run_history(result)
        return result

    def _record_run_history(self, result: PipelineResult) -> None:
        from repro.metrics.runs import record_run

        timings = result.timings
        record_run(
            self._run_history_dir,
            kind="pipeline",
            label="core=%s attacker=%s template=%s budget=%d seed=%d"
            % (
                result.core_name,
                result.attacker_name,
                result.template_name,
                self._count,
                self._seed,
            ),
            seconds=timings.total_seconds,
            cases=len(result.dataset),
            phases={
                "setup": timings.setup_seconds,
                "evaluate": timings.evaluation_seconds,
                "synthesize": timings.synthesis_seconds,
                "verify": timings.verification_seconds,
            },
            extra={
                "atoms": result.atom_count,
                "false_positives": result.false_positives,
                "cache_hit": timings.cache_hit,
            },
        )

    def _store_cell(self):
        """This configuration as a campaign cell — the contract store's
        key shape.  Requires name-addressed plugins; retry/timeout
        settings are deliberately absent (they never change a result,
        so they must not fragment the store key space)."""
        # Imported at call time: repro.campaign builds on this module.
        from repro.campaign.spec import CampaignCell

        if not (
            isinstance(self._core, str)
            and isinstance(self._attacker, str)
            and isinstance(self._template, str)
            and isinstance(self._solver, str)
            and isinstance(self._generator, str)
            and (self._restriction is None or isinstance(self._restriction, str))
        ):
            raise ValueError(
                "store() keys contracts by registry name: configure core, "
                "attacker, template, solver, generator, and restriction "
                "by name when attaching a contract store"
            )
        stop = self._adaptive["stop"] if self._adaptive is not None else None
        if stop is not None and not isinstance(stop, str):
            raise ValueError(
                "store() with an adaptive pipeline needs a name-addressed "
                "stopping rule"
            )
        return CampaignCell(
            core=self._core,
            attacker=self._attacker,
            template=self._template,
            restriction=self._restriction,
            solver=self._solver,
            budget=self._count,
            seed=self._seed,
            generator=self._generator,
            adaptive_rounds=self._adaptive["rounds"]
            if self._adaptive is not None
            else None,
            batch=self._adaptive["batch"] if self._adaptive is not None else None,
            # The adaptive() default rule maps to the cell default
            # (None), so builder-configured and campaign-configured
            # runs of the same loop share one store key.
            stop=None if stop == "contract-stable" else stop,
            fastpath=self._use_fastpath,
            verify=self._verify_budget,
        )

    def _run_oneshot(self, tracer: Tracer) -> PipelineResult:
        """The classic fixed-budget chain, as a span stream.

        Each legacy phase timer became a ``phase`` span with the same
        boundaries; :meth:`PhaseTimings.from_spans` projects the
        timings back out of the tracer's collector, so the trace file
        and the CLI timing table share one measurement."""
        failures: List[FailureRecord] = []
        with tracer.span(
            "pipeline",
            core=self.core_name(),
            attacker=self.attacker_name(),
            solver=self.solver_name(),
            template=self.template_name(),
            budget=self._count,
            seed=self._seed,
        ):
            with tracer.span("phase", phase="setup"):
                core = self.resolve_core()
                template = self.resolve_template()
                attacker = self.resolve_attacker()
                solver = self.resolve_solver()
                cache_path = self.cache_path()
                cached = cache_path is not None and os.path.exists(cache_path)
                executor = self._effective_executor()
                if not cached and executor is None:
                    # Generator/evaluator construction (template
                    # fast-path compilation included) is part of the
                    # setup phase, like the paper's testbench
                    # compilation; a cache hit skips it, and executor
                    # workers each build (and time) their own.
                    generator = self.resolve_generator(template)
                    evaluator = TestCaseEvaluator(
                        core,
                        template,
                        attacker=attacker,
                        use_fastpath=self._use_fastpath,
                    )

            evaluate_span = tracer.span("phase", phase="evaluate")
            with evaluate_span:
                if cache_path is not None:
                    current_metrics().counter(
                        "dataset.cache.hits" if cached else "dataset.cache.misses"
                    ).inc()
                if cached:
                    dataset = EvaluationDataset.load(cache_path)
                    evaluate_span.add(cache_hit=True)
                elif executor is not None:
                    stats: dict = {}
                    dataset = self._evaluate_sharded(
                        executor, stats, failures, tracer
                    )
                    evaluate_span.add(**stats)
                else:
                    dataset = evaluator.evaluate_many(
                        generator.iter_generate(self._count),
                        progress_every=self._progress_every,
                    )
                    if cache_path is not None:
                        dataset.save(cache_path)
                    evaluate_span.add(
                        simulation_seconds=evaluator.simulation_seconds,
                        extraction_seconds=evaluator.extraction_seconds,
                    )

            with tracer.span("phase", phase="synthesize"):
                restriction_name, allowed_atom_ids = self.resolve_restriction(
                    template
                )
                synthesis = ContractSynthesizer(template, solver).synthesize(
                    dataset, allowed_atom_ids=allowed_atom_ids
                )

            with tracer.span("phase", phase="verify"):
                verification: Optional[SatisfactionReport]
                if self._verify_budget is None:
                    verification = check_dataset_satisfaction(
                        synthesis.contract, dataset
                    )
                elif self._verify_budget > 0:
                    verification = check_contract_satisfaction(
                        synthesis.contract,
                        core,
                        test_cases=self._verify_budget,
                        seed=self._verify_seed
                        if self._verify_seed is not None
                        else self._seed + 1,
                        attacker=attacker,
                    )
                else:
                    verification = None

        timings = PhaseTimings.from_spans(tracer.collector)
        return PipelineResult(
            core_name=self.core_name(),
            attacker_name=self.attacker_name(),
            solver_name=self.solver_name(),
            template_name=self.template_name(),
            restriction=restriction_name,
            dataset=dataset,
            synthesis=synthesis,
            verification=verification,
            timings=timings,
            generator_name=self.generator_name(),
            failures=failures,
        )

    def _adaptive_progress(self):
        """A per-round progress printer when :meth:`progress` is on
        (the adaptive analogue of the one-shot path's per-case and
        per-shard progress)."""
        if not self._progress_every:
            return None

        def emit(record) -> None:
            print(
                "round %d: %d cases evaluated (%.1f%% atom coverage, "
                "%d-atom contract)%s"
                % (
                    record.round_index,
                    record.cumulative_cases,
                    100.0 * record.atom_coverage,
                    record.contract_size,
                    " [%s]" % record.stop_reason if record.stop_reason else "",
                )
            )

        return emit

    def _run_adaptive(self, tracer: Tracer) -> PipelineResult:
        """The adaptive run: rounds executed by
        :class:`~repro.adaptive.AdaptiveLoop`, repackaged as a
        :class:`PipelineResult` (the loop's accumulated dataset and
        final synthesis take the places of the one-shot phases; the
        per-round records travel in ``result.adaptive``).

        Timing semantics differ from the one-shot run: evaluation and
        synthesis interleave per round, so the ``evaluate`` span is
        the whole loop and the ``synthesize`` phase record only the
        final round's solve (already included in the former; emitted
        via :meth:`Tracer.record` since the duration is accounted by
        the loop, not re-measured here).  The loop itself emits one
        ``round`` span per live round through a child tracer.
        """
        failures: List[FailureRecord] = []
        with tracer.span(
            "pipeline",
            core=self.core_name(),
            attacker=self.attacker_name(),
            solver=self.solver_name(),
            template=self.template_name(),
            budget=self._count,
            seed=self._seed,
            adaptive=True,
        ):
            with tracer.span("phase", phase="setup"):
                template = self.resolve_template()
                restriction_name, allowed_atom_ids = self.resolve_restriction(
                    template
                )
                rounds, batch = self._adaptive_plan()
                manifest_path = self.adaptive_manifest_path()
                quarantine_path = (
                    manifest_path[: -len(".rounds.jsonl")] + ".quarantine.jsonl"
                    if manifest_path is not None
                    and manifest_path.endswith(".rounds.jsonl")
                    and (self._retry is not None or self._shard_timeout is not None)
                    else None
                )
                loop = AdaptiveLoop(
                    core=self._core,
                    template=self._template,
                    attacker=self._attacker,
                    solver=self._solver,
                    generator=self._generator,
                    rounds=rounds,
                    batch=batch,
                    stop=self._adaptive["stop"],
                    seed=self._seed,
                    allowed_atom_ids=allowed_atom_ids,
                    restriction=restriction_name,
                    use_fastpath=self._use_fastpath,
                    executor=self._executor,
                    processes=self._processes,
                    shard_size=self._shard_size,
                    manifest_path=manifest_path,
                    progress=self._adaptive_progress(),
                    retry=self._retry,
                    shard_timeout=self._shard_timeout,
                    failure_log_path=quarantine_path,
                    on_failure=failures.append,
                    tracer=tracer.child("adaptive"),
                )

            evaluate_span = tracer.span("phase", phase="evaluate")
            with evaluate_span:
                adaptive = loop.run()
                if self._executor is not None:
                    evaluate_span.add(
                        executor=self._executor
                        if isinstance(self._executor, str)
                        else self._executor.name
                    )
            tracer.record(
                "phase", adaptive.synthesis.wall_seconds, phase="synthesize"
            )

            with tracer.span("phase", phase="verify"):
                verification: Optional[SatisfactionReport]
                if self._verify_budget is None:
                    verification = check_dataset_satisfaction(
                        adaptive.synthesis.contract, adaptive.dataset
                    )
                elif self._verify_budget > 0:
                    verification = check_contract_satisfaction(
                        adaptive.synthesis.contract,
                        self.resolve_core(),
                        test_cases=self._verify_budget,
                        seed=self._verify_seed
                        if self._verify_seed is not None
                        else self._seed + 1,
                        attacker=self.resolve_attacker(),
                    )
                else:
                    verification = None

        timings = PhaseTimings.from_spans(tracer.collector)
        return PipelineResult(
            core_name=self.core_name(),
            attacker_name=self.attacker_name(),
            solver_name=self.solver_name(),
            template_name=self.template_name(),
            restriction=restriction_name,
            dataset=adaptive.dataset,
            synthesis=adaptive.synthesis,
            verification=verification,
            timings=timings,
            generator_name=self.generator_name(),
            adaptive=adaptive,
            failures=failures,
        )
