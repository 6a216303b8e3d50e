"""The adaptive synthesis loop: generate → evaluate → steer.

:class:`AdaptiveLoop` wraps the existing pipeline phases in rounds.
Each round generates ``batch`` test cases through a
``GENERATOR_REGISTRY`` strategy and evaluates them as one window of
:func:`~repro.evaluation.parallel.evaluate_parallel`: by default on
the ``serial`` backend over one stack built from the loop's own live
strategy and evaluator (at ``batch <= shard_size`` one batched call
per round), or fanned out through an ``EXECUTOR_REGISTRY`` backend
whose workers rebuild the strategy from its registry name plus a JSON
state snapshot.  The loop then feeds the per-atom coverage back into
the strategy and re-synthesizes the contract from the accumulated
dataset, offering the previous round's contract as a warm start
(:meth:`~repro.synthesis.synthesizer.ContractSynthesizer.synthesize`
reuses it only while it still covers every case at zero false
positives; coverage-steered rounds change the contract, so in
practice every round solves cold).
A pluggable :class:`~repro.adaptive.stopping.StoppingRule` ends the
loop early; otherwise it runs its full round budget.

Test ids are allocated per round as ``[r * batch, (r + 1) * batch)``,
so a loop is resumable at round granularity: completed rounds are
checkpointed to an :class:`~repro.adaptive.manifest.AdaptiveManifest`
(results, strategy state, contract) and re-ingested instead of re-run.

One round of the ``random`` strategy is byte-identical to the classic
fixed-budget pipeline — the adaptive loop strictly generalizes it.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

from repro.adaptive.manifest import AdaptiveManifest
from repro.adaptive.stopping import AdaptiveState, StoppingRule, resolve_stopping_rules
from repro.resilience.injection import maybe_inject
from repro.resilience.quarantine import FailureRecord, FailureSink
from repro.resilience.retry import RetryPolicy, effective_policy, retry_unit
from repro.attacker.base import Attacker
from repro.contracts.template import ContractTemplate
from repro.evaluation.backends import (
    EvaluationExecutor,
    SerialExecutor,
    ShardEvaluator,
)
from repro.evaluation.parallel import evaluate_parallel
from repro.evaluation.results import EvaluationDataset, TestCaseResult
from repro.metrics.registry import current_metrics
from repro.pipeline.config import PipelineConfig
from repro.synthesis.solvers import IlpSolver
from repro.synthesis.synthesizer import ContractSynthesizer, SynthesisResult
from repro.testgen.strategies import GenerationStrategy
from repro.trace.tracer import Tracer
from repro.uarch.core import Core

#: Optional per-round progress callback.
RoundCallback = Callable[["RoundRecord"], None]


@dataclass(frozen=True)
class RoundRecord:
    """The outcome of one adaptive round (cumulative where noted)."""

    round_index: int
    #: First test id of the round's generation window.
    start_id: int
    #: Cases evaluated in this round / in all rounds so far.
    cases: int
    cumulative_cases: int
    #: Attacker-distinguishable cases so far (cumulative).
    distinguishable: int
    #: Distinct targetable atoms distinguished so far, and the fraction
    #: of the targetable template they represent.
    covered_atoms: int
    atom_coverage: float
    #: The round's synthesized contract (sorted atom ids) and its FPs.
    contract_atom_ids: Tuple[int, ...]
    false_positives: int
    #: The round's synthesis reused the previous contract (the
    #: warm-start feasibility shortcut) instead of a cold solve.
    warm_started: bool
    #: The round came from the manifest, not this run.
    resumed: bool
    #: Stop reason recorded after this round (``None`` to continue).
    stop_reason: Optional[str]
    seconds: float

    @property
    def contract_size(self) -> int:
        return len(self.contract_atom_ids)


@dataclass
class AdaptiveResult:
    """Everything one adaptive run produced."""

    records: List[RoundRecord]
    dataset: EvaluationDataset
    synthesis: SynthesisResult
    stop_reason: str
    generator_name: str
    batch: int
    rounds_limit: int

    @property
    def contract(self):
        return self.synthesis.contract

    @property
    def total_cases(self) -> int:
        return len(self.dataset)

    @property
    def rounds_run(self) -> int:
        return len(self.records)

    @property
    def resumed_rounds(self) -> int:
        return sum(1 for record in self.records if record.resumed)

    def curves(self):
        """Per-round coverage/contract-size curves (x = cumulative
        cases), as :class:`repro.reporting.curves.Series`."""
        from repro.reporting.curves import adaptive_round_curves

        return adaptive_round_curves(self.records)

    def render(self) -> str:
        lines = [
            "adaptive: generator=%s batch=%d rounds=%d/%d cases=%d (%s)"
            % (
                self.generator_name,
                self.batch,
                self.rounds_run,
                self.rounds_limit,
                self.total_cases,
                self.stop_reason,
            )
        ]
        for record in self.records:
            lines.append(
                "  round %d: %d cases, %.1f%% atom coverage, "
                "%d-atom contract, %d FPs%s%s"
                % (
                    record.round_index,
                    record.cumulative_cases,
                    100.0 * record.atom_coverage,
                    record.contract_size,
                    record.false_positives,
                    " (warm)" if record.warm_started else "",
                    " (resumed)" if record.resumed else "",
                )
            )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "AdaptiveResult(%s, %d rounds, %d cases, %d atoms)" % (
            self.generator_name,
            self.rounds_run,
            self.total_cases,
            len(self.synthesis.contract),
        )


@dataclass
class _LoopAccumulator:
    """The loop's cross-round running state."""

    results: List[TestCaseResult] = field(default_factory=list)
    atom_counts: dict = field(default_factory=dict)
    contracts: List[Tuple[int, ...]] = field(default_factory=list)
    distinguishable: int = 0

    def ingest(self, results: Sequence[TestCaseResult]) -> None:
        self.results.extend(results)
        for result in results:
            if result.attacker_distinguishable:
                self.distinguishable += 1
            for atom_id in result.distinguishing_atom_ids:
                self.atom_counts[atom_id] = self.atom_counts.get(atom_id, 0) + 1


class AdaptiveLoop:
    """Coverage-guided synthesis: rounds of generate → evaluate → steer.

    Plugins are accepted as registry names or instances; the executor
    fan-out and manifest checkpointing require *names* (workers and
    checkpoint keys rebuild plugins by name, the same rule as the
    pipeline's executor path).  Without an executor the rounds run on
    the ``serial`` backend over the loop's own plugin instances.
    """

    def __init__(
        self,
        core: Union[str, Core] = "ibex",
        template: Union[str, ContractTemplate] = "riscv-rv32im",
        attacker: Union[str, Attacker] = "retirement-timing",
        solver: Union[str, IlpSolver] = "scipy-milp",
        generator: Union[str, GenerationStrategy] = "coverage",
        rounds: int = 8,
        batch: int = 250,
        stop: Union[None, str, StoppingRule, Sequence] = "contract-stable",
        seed: int = 0,
        allowed_atom_ids=None,
        restriction: Optional[str] = None,
        use_fastpath: bool = True,
        executor: Union[None, str, EvaluationExecutor] = None,
        processes: Optional[int] = None,
        shard_size: int = 250,
        manifest_path: Optional[str] = None,
        progress: Optional[RoundCallback] = None,
        retry: Optional[RetryPolicy] = None,
        shard_timeout: Optional[float] = None,
        failure_log_path: Optional[str] = None,
        on_failure: Optional[Callable[[FailureRecord], None]] = None,
        tracer: Optional[Tracer] = None,
    ):
        if rounds < 1:
            raise ValueError("rounds must be at least 1")
        if batch < 1:
            raise ValueError("batch must be at least 1")
        self.config = PipelineConfig(
            core=core,
            attacker=attacker,
            template=template,
            solver=solver,
            generator=generator,
            seed=seed,
            fastpath=use_fastpath,
        )
        if executor is not None:
            self.config.require_names("executor")
        self.generator_name = self.config.name("generator")
        self.core = self.config.resolve_core()
        self.template = self.config.resolve_template()
        self.attacker = self.config.resolve_attacker()
        self.solver = self.config.resolve_solver()
        self.strategy = self.config.resolve_generator(self.template)
        self.rounds = rounds
        self.batch = batch
        self.rules = resolve_stopping_rules(stop)
        self.allowed_atom_ids = (
            frozenset(allowed_atom_ids) if allowed_atom_ids is not None else None
        )
        self.restriction = restriction
        if executor is None:
            # The serial loop over this loop's live strategy and evaluator.
            executor = SerialExecutor(
                worker=ShardEvaluator.from_plugins(
                    self.core,
                    self.template,
                    self.strategy,
                    attacker=self.attacker,
                    use_fastpath=self.config.fastpath,
                )
            )
        #: The backend every round runs on.
        self.executor = executor
        self.processes = processes
        self.shard_size = shard_size
        self.manifest_path = manifest_path
        self.progress = progress
        #: Round-granularity retry policy (see ``effective_policy``); also
        #: forwarded to the executor path for shard retry within a round.
        self.retry = effective_policy(retry, shard_timeout)
        self.shard_timeout = shard_timeout
        self.failure_log_path = failure_log_path
        self.on_failure = on_failure
        #: Trace emitter: one ``round`` span per live round (with
        #: coverage/convergence end fields), one ``round-resumed``
        #: event per replayed round.  No-op when not configured.
        self.tracer = tracer if tracer is not None else Tracer(None)

    # -- identity ------------------------------------------------------

    def manifest_key(self) -> dict:
        """The round-manifest key (see
        :meth:`~repro.pipeline.config.PipelineConfig.round_manifest_key`)."""
        return self.config.round_manifest_key(self.batch, self.restriction)

    @property
    def targetable_atom_ids(self) -> frozenset:
        if self.allowed_atom_ids is not None:
            return self.allowed_atom_ids
        return frozenset(atom.atom_id for atom in self.template)

    # -- execution -----------------------------------------------------

    def run(self) -> AdaptiveResult:
        """Run rounds until a stopping rule fires or the budget ends."""
        synthesizer = ContractSynthesizer(self.template, self.solver)
        accumulator = _LoopAccumulator()
        records: List[RoundRecord] = []
        manifest = (
            AdaptiveManifest(self.manifest_path, self.manifest_key())
            if self.manifest_path is not None
            else None
        )
        sink = FailureSink(
            self.tracer,
            self.on_failure,
            self.failure_log_path,
            self.manifest_key() if self.failure_log_path is not None else None,
        )
        stop_reason: Optional[str] = None
        synthesis: Optional[SynthesisResult] = None
        previous_contract: Optional[Tuple[int, ...]] = None

        if manifest is not None:
            for entry in manifest.stored_rounds():
                if len(records) >= self.rounds:
                    break
                round_index = int(entry["round"])
                results = [TestCaseResult.from_row(row) for row in entry["rows"]]
                accumulator.ingest(results)
                accumulator.contracts.append(tuple(entry["contract"]))
                # Convergence is re-decided by *this* run's rules over
                # the replayed state: a verdict persisted under a
                # different (or stricter) rule must not halt a resumed
                # run that was configured to keep going.
                stop_reason = self._check_stop(round_index, accumulator)
                self._resumed_false_positives = int(entry.get("fps", 0))
                record = self._record(
                    round_index,
                    int(entry["start_id"]),
                    len(results),
                    accumulator,
                    synthesis=None,
                    stop_reason=stop_reason,
                    resumed=True,
                    seconds=0.0,
                )
                records.append(record)
                previous_contract = record.contract_atom_ids
                self.tracer.event(
                    "round-resumed",
                    round=record.round_index,
                    cases=record.cases,
                    cumulative_cases=record.cumulative_cases,
                    atom_coverage=record.atom_coverage,
                    contract_size=record.contract_size,
                )
                self._emit(record)
                if stop_reason is not None:
                    break
            if records:
                last_entry = manifest.completed[records[-1].round_index]
                self.strategy.restore(last_entry["state"])

        for round_index in range(len(records), self.rounds):
            if stop_reason is not None:
                break
            started = time.perf_counter()
            start_id = round_index * self.batch
            round_span = self.tracer.span(
                "round", round=round_index, start_id=start_id
            )
            with round_span:
                state = self.strategy.state()

                def attempt_round(attempt: int) -> List[TestCaseResult]:
                    maybe_inject("round", round_index=round_index, attempt=attempt)
                    return self._evaluate_round(start_id, state)

                # A retry regenerates the same cases: ``state`` predates
                # every attempt.  Each round steers the next, so an
                # exhausted round raises.
                round_results = retry_unit(
                    attempt_round,
                    self.retry,
                    sink,
                    "round",
                    {"round": round_index, "start_id": start_id},
                    quarantine=False,
                )
                self.strategy.observe(round_results)
                accumulator.ingest(round_results)
                synthesis = synthesizer.synthesize(
                    self._dataset(accumulator),
                    allowed_atom_ids=self.allowed_atom_ids,
                    warm_start=previous_contract,
                )
                contract_ids = tuple(sorted(synthesis.contract.atom_ids))
                accumulator.contracts.append(contract_ids)
                stop_reason = self._check_stop(round_index, accumulator)
                if stop_reason is None and round_index == self.rounds - 1:
                    stop_reason = "budget-exhausted"
                record = self._record(
                    round_index,
                    start_id,
                    len(round_results),
                    accumulator,
                    synthesis,
                    stop_reason,
                    resumed=False,
                    seconds=time.perf_counter() - started,
                )
                round_span.add(
                    cases=record.cases,
                    cumulative_cases=record.cumulative_cases,
                    covered_atoms=record.covered_atoms,
                    atom_coverage=record.atom_coverage,
                    contract_size=record.contract_size,
                    false_positives=record.false_positives,
                    warm_started=record.warm_started,
                    stop_reason=record.stop_reason,
                )
                metrics = current_metrics()
                metrics.counter("adaptive.rounds").inc()
                metrics.counter("adaptive.cases").inc(record.cases)
                metrics.gauge("adaptive.round.coverage").set(
                    round(record.atom_coverage, 6)
                )
                metrics.maybe_flush()
            records.append(record)
            previous_contract = contract_ids
            if manifest is not None:
                manifest.append_round(
                    round_index,
                    start_id,
                    round_results,
                    self.strategy.state(),
                    contract_ids,
                    synthesis.false_positives,
                    # Only rule-based convergence persists: budget
                    # exhaustion is relative to *this* run's round
                    # budget, and an extended-rounds resume must be
                    # free to continue past it.
                    stop_reason if stop_reason != "budget-exhausted" else None,
                )
            self._emit(record)

        if synthesis is None:
            # Every round was resumed from the manifest: rebuild the
            # final synthesis from the accumulated dataset, warm-started
            # from the stored contract.
            synthesis = synthesizer.synthesize(
                self._dataset(accumulator),
                allowed_atom_ids=self.allowed_atom_ids,
                warm_start=previous_contract,
            )
        return AdaptiveResult(
            records=records,
            dataset=self._dataset(accumulator),
            synthesis=synthesis,
            stop_reason=stop_reason or "budget-exhausted",
            generator_name=self.generator_name,
            batch=self.batch,
            rounds_limit=self.rounds,
        )

    # -- internals -----------------------------------------------------

    def _evaluate_round(self, start_id: int, state: dict) -> List[TestCaseResult]:
        dataset = evaluate_parallel(
            count=self.batch,
            processes=self.processes,
            shard_size=self.shard_size,
            executor=self.executor,
            generator_state=json.dumps(state, sort_keys=True) if state else None,
            start_id=start_id,
            retry=self.retry,
            shard_timeout=self.shard_timeout,
            # No per-round failure-log file: the task identity (and
            # with it the log's binding key) changes every round as
            # the strategy state advances.  Durable round-level
            # records go to the loop's sink, under its stable
            # manifest key, instead.
            on_failure=self.on_failure,
            tracer=self.tracer,
            **self.config.stream_key(),
        )
        if len(dataset) < self.batch:
            # Each round steers the next, so none may go on without a
            # quarantined shard's results: fail it (and retry the round).
            raise RuntimeError(
                "round lost %d of %d cases to quarantined shards"
                % (self.batch - len(dataset), self.batch)
            )
        return list(dataset)

    def _dataset(self, accumulator: _LoopAccumulator) -> EvaluationDataset:
        return EvaluationDataset(
            accumulator.results,
            core_name=self.config.name("core"),
            template_name=self.config.name("template"),
            attacker_name=self.config.name("attacker"),
        )

    def _check_stop(
        self, round_index: int, accumulator: _LoopAccumulator
    ) -> Optional[str]:
        state = AdaptiveState(
            round_index=round_index,
            contracts=tuple(accumulator.contracts),
            covered_atom_ids=frozenset(accumulator.atom_counts),
            targetable_atom_ids=self.targetable_atom_ids,
            cumulative_cases=len(accumulator.results),
            max_cases=self.rounds * self.batch,
        )
        for rule in self.rules:
            reason = rule.check(state)
            if reason is not None:
                return reason
        return None

    def _coverage(self, accumulator: _LoopAccumulator) -> Tuple[int, float]:
        targetable = self.targetable_atom_ids
        covered = frozenset(accumulator.atom_counts) & targetable
        fraction = len(covered) / len(targetable) if targetable else 1.0
        return len(covered), fraction

    def _record(
        self,
        round_index: int,
        start_id: int,
        cases: int,
        accumulator: _LoopAccumulator,
        synthesis: Optional[SynthesisResult],
        stop_reason: Optional[str],
        resumed: bool,
        seconds: float,
    ) -> RoundRecord:
        covered, fraction = self._coverage(accumulator)
        contract_ids = accumulator.contracts[-1]
        if synthesis is not None:
            false_positives = synthesis.false_positives
            warm_started = bool(synthesis.solver_result.stats.get("warm_start"))
        else:  # resumed round: diagnostics come from the stored entry
            false_positives = self._resumed_false_positives
            warm_started = False
        return RoundRecord(
            round_index=round_index,
            start_id=start_id,
            cases=cases,
            cumulative_cases=len(accumulator.results),
            distinguishable=accumulator.distinguishable,
            covered_atoms=covered,
            atom_coverage=fraction,
            contract_atom_ids=contract_ids,
            false_positives=false_positives,
            warm_started=warm_started,
            resumed=resumed,
            stop_reason=stop_reason,
            seconds=seconds,
        )

    def _emit(self, record: RoundRecord) -> None:
        if self.progress is not None:
            self.progress(record)
