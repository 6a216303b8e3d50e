"""The adaptive synthesis loop: generate → evaluate → steer.

:class:`AdaptiveLoop` wraps the existing pipeline phases in rounds.
Each round generates ``batch`` test cases through a
``GENERATOR_REGISTRY`` strategy and evaluates them as one window of
:func:`~repro.evaluation.parallel.evaluate_parallel`, by default on the
``serial`` backend (at ``batch <= shard_size`` one batched call per
round).  Every in-process backend runs on one stack built from the
loop's own live strategy and evaluator, which a ``multiprocess`` pool's
forked workers inherit; only ``workqueue`` workers rebuild the strategy
from its registry name plus a JSON state snapshot.  The loop then feeds
the per-atom coverage back into the strategy and re-synthesizes the
contract from the accumulated dataset.  A pluggable
:class:`~repro.adaptive.stopping.StoppingRule` ends the loop early;
otherwise it runs its full round budget.

The strategy steers on results, not contracts, so a round's synthesis
is not needed before the next round is evaluated.  The rounds form a
pipeline: the loop evaluates each round in the calling thread and hands
its :meth:`~repro.synthesis.synthesizer.ContractSynthesizer.synthesize`
call to a thread, whose HiGHS solve runs in a worker of the run's
:class:`~repro.forkpool.ForkPool`, and goes on to the next round.  Up
to ``processes`` rounds (by default the usable CPUs, at most 8) are in
flight at once.  Every round solves its
own cumulative dataset, so its contract never depends on an earlier
round's.  Rounds *settle* in round order: the stopping rules run, and
the round is recorded, traced, checkpointed and reported.  Rounds
evaluated or solved past a stop are dropped, and the strategy steps
back to the last settled round, so every width yields the same
records, dataset, manifest and contract.  A round whose evaluation or solve fails raises when it
settles, after every earlier round.  At width 1 (one CPU, one round
left, or ``processes=1``) each synthesis runs in the calling thread
before the next round starts.  :attr:`RoundRecord.seconds` runs from
the start of a round's evaluation to its settlement, so the rounds of
a pipeline overlap and their seconds add up to more than the loop's
wall time.

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
from collections import deque
from concurrent.futures import CancelledError, Future, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional, Sequence, Tuple, Union

from repro.adaptive.manifest import AdaptiveManifest
from repro.adaptive.stopping import AdaptiveState, StoppingRule, resolve_stopping_rules
from repro.resilience.injection import maybe_inject
from repro.resilience.quarantine import FailureRecord, FailureSink
from repro.resilience.retry import RetryPolicy, effective_policy, retry_unit
from repro.attacker.base import Attacker
from repro.contracts.template import ContractTemplate
from repro.evaluation.backends import (
    EvaluationExecutor,
    ShardEvaluator,
    bind_executor,
)
from repro.evaluation.backends.executors import MultiprocessExecutor, default_processes
from repro.evaluation.parallel import evaluate_parallel
from repro.evaluation.results import EvaluationDataset, TestCaseResult
from repro.metrics.registry import current_metrics
from repro.forkpool import ForkPool, current_pool, result
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
    #: Always ``False``: every round solves cold.  Kept only because the
    #: e2ebench harness reads it.
    warm_started: bool
    #: The round came from the manifest, not this run.
    resumed: bool
    #: Stop reason recorded after this round (``None`` to continue).
    stop_reason: Optional[str]
    #: Wall seconds from the start of the round's evaluation to its
    #: settlement (overlapping the next rounds' in a pipeline).
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
                "%d-atom contract, %d FPs%s"
                % (
                    record.round_index,
                    record.cumulative_cases,
                    100.0 * record.atom_coverage,
                    record.contract_size,
                    record.false_positives,
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


@dataclass
class _PendingRound:
    """A round evaluated, with its synthesis submitted, not yet settled."""

    round_index: int
    start_id: int
    #: ``time.perf_counter()`` when the round's evaluation started.
    started: float
    results: List[TestCaseResult]
    #: The strategy's state right after it observed this round.
    state: dict
    #: The round's :class:`SynthesisResult`, or the error of its
    #: evaluation or solve.
    synthesis: Future


class _RoundSynthesizer(ContractSynthesizer):
    """The loop's synthesizer.  A round may be synthesized before the
    previous one settles, so the loop counts the round in the run's
    metrics when it settles it, in round order: a round dropped past a
    stop counts nothing, and no two threads bump a counter."""

    def count(self, synthesis: SynthesisResult) -> None:
        """Count nothing yet: :meth:`settle` does."""

    def settle(self, synthesis: SynthesisResult) -> None:
        super().count(synthesis)


def _solve(solver: IlpSolver, instance):
    return solver.solve(instance)


class _PooledSolver(IlpSolver):
    """``solver``'s solves in ``pool``'s workers, so that round threads
    solve at once, each HiGHS outside this address space.  A solve a
    pool break cut off is resubmitted once (solves are pure), unless
    the loop :attr:`stopped` and abandoned it."""

    def __init__(self, pool: ForkPool, solver: IlpSolver):
        self.pool = pool
        self.solver = solver
        self.name = solver.name
        self.stopped = False

    def solve(self, instance):
        try:
            return result(self.pool.submit(_solve, self.solver, instance))
        except (BrokenProcessPool, CancelledError):
            if self.stopped:
                raise
            return result(self.pool.submit(_solve, self.solver, instance))


class AdaptiveLoop:
    """Coverage-guided synthesis: rounds of generate → evaluate → steer.

    Plugins are accepted as registry names or instances.  Every
    in-process executor (``serial`` by default) runs the rounds over
    the loop's own plugin instances; the ``workqueue`` backend and
    manifest checkpointing require *names* (its workers and checkpoint
    keys rebuild plugins by name, the same rule as the pipeline's).
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
        #: The backend every round runs on.
        self.executor = bind_executor(executor or "serial")
        if self.executor.external:
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
        if not self.executor.external and self.executor.worker is None:
            # This loop's live strategy and evaluator.
            self.executor.worker = ShardEvaluator.from_plugins(
                self.core,
                self.template,
                self.strategy,
                attacker=self.attacker,
                use_fastpath=self.config.fastpath,
            )
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
        #: Trace emitter: one ``round`` span per live round, an end
        #: record (with coverage/convergence fields) emitted when the
        #: round settles, and one ``round-resumed`` event per replayed
        #: round.  No-op when not configured.
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

        if stop_reason is None and len(records) < self.rounds:
            stop_reason, synthesis = self._run_rounds(
                accumulator, records, manifest, sink
            )
        if synthesis is None:
            # Every round was resumed from the manifest: rebuild the
            # final synthesis from the accumulated dataset.
            synthesis = ContractSynthesizer(self.template, self.solver).synthesize(
                self._dataset(accumulator.results),
                allowed_atom_ids=self.allowed_atom_ids,
            )
        return AdaptiveResult(
            records=records,
            dataset=self._dataset(accumulator.results),
            synthesis=synthesis,
            stop_reason=stop_reason or "budget-exhausted",
            generator_name=self.generator_name,
            batch=self.batch,
            rounds_limit=self.rounds,
        )

    # -- internals -----------------------------------------------------

    def _run_rounds(
        self,
        accumulator: _LoopAccumulator,
        records: List[RoundRecord],
        manifest: Optional[AdaptiveManifest],
        sink: FailureSink,
    ) -> Tuple[Optional[str], SynthesisResult]:
        """Run the live rounds after ``records``; returns the stop reason
        and the last round's synthesis.

        The rounds form a pipeline (see the module docstring) of width
        ``processes``, or the usable CPUs (at most 8), and at most the
        rounds left; rounds settle in round order (see :meth:`_settle`).
        Solves run on the enclosing run's pool when it holds this loop's
        solver and stack, else on the loop's own, as wide as the
        pipeline (``processes`` wide when evaluation fans out on it);
        it forks before the first solve thread starts.  Solves still in
        flight past a stop are abandoned with the pool's workers.
        """
        workers = default_processes(self.processes)
        width = min(workers, self.rounds - len(records))
        size = workers if isinstance(self.executor, MultiprocessExecutor) else width
        targets = [t for t in (self.solver, self.executor.worker) if t is not None]
        own = ExitStack()
        pool = current_pool(*targets) or own.enter_context(ForkPool(size, targets))
        threads = solver = None
        pending: Deque[_PendingRound] = deque()
        evaluated = list(accumulator.results)
        state = settled_state = self.strategy.state()
        stop_reason: Optional[str] = None
        synthesis: Optional[SynthesisResult] = None
        next_round, end = len(records), self.rounds
        try:
            if width > 1:
                pool.start()
                threads = ThreadPoolExecutor(width)
                solver = _PooledSolver(pool, self.solver)
            synthesizer = _RoundSynthesizer(self.template, solver or self.solver)
            while stop_reason is None:
                if pending and (
                    len(pending) == width
                    or next_round == end
                    or pending[0].synthesis.done()
                ):
                    entry = pending.popleft()
                    synthesis = self._settle(
                        entry, synthesizer, accumulator, records, manifest
                    )
                    stop_reason = records[-1].stop_reason
                    settled_state = entry.state
                    continue
                if next_round == end:
                    break
                started = time.perf_counter()
                start_id = next_round * self.batch
                future: Future = Future()
                try:
                    results = self._evaluate_with_retry(
                        next_round, start_id, state, sink
                    )
                    self.strategy.observe(results)
                    state = self.strategy.state()
                    evaluated.extend(results)
                    dataset = self._dataset(evaluated)
                    if threads is None:
                        future.set_result(
                            synthesizer.synthesize(dataset, self.allowed_atom_ids)
                        )
                    else:
                        future = threads.submit(
                            synthesizer.synthesize, dataset, self.allowed_atom_ids
                        )
                except Exception as error:
                    # Raised when the round settles: after every earlier
                    # round, and never if one of them stops the run.
                    future.set_exception(error)
                    results, end = [], next_round + 1
                pending.append(
                    _PendingRound(next_round, start_id, started, results, state, future)
                )
                next_round += 1
        finally:
            if threads is not None:
                if not all(entry.synthesis.done() for entry in pending):
                    # Solves still running are abandoned, not waited for.
                    solver.stopped = True
                    pool.close()
                threads.shutdown(cancel_futures=True)
            own.close()
        if pending:
            # Rounds started past the stop are dropped, with the
            # strategy steps they took.
            self.strategy.restore(settled_state)
        return stop_reason, synthesis

    def _evaluate_with_retry(
        self, round_index: int, start_id: int, state: dict, sink: FailureSink
    ) -> List[TestCaseResult]:
        def attempt_round(attempt: int) -> List[TestCaseResult]:
            maybe_inject("round", round_index=round_index, attempt=attempt)
            return self._evaluate_round(start_id, state)

        # A retry regenerates the same cases: ``state`` predates every
        # attempt.  Each round steers the next, so an exhausted round
        # raises.
        return retry_unit(
            attempt_round,
            self.retry,
            sink,
            "round",
            {"round": round_index, "start_id": start_id},
            quarantine=False,
        )

    def _settle(
        self,
        entry: "_PendingRound",
        synthesizer: "_RoundSynthesizer",
        accumulator: _LoopAccumulator,
        records: List[RoundRecord],
        manifest: Optional[AdaptiveManifest],
    ) -> SynthesisResult:
        """Settle the oldest pending round: run the stopping rules, then
        count, record, trace, checkpoint and report the round.  A round
        whose evaluation or solve failed raises here."""
        try:
            synthesis = entry.synthesis.result()
        except BaseException:
            self.tracer.record(
                "round",
                time.perf_counter() - entry.started,
                ok=False,
                round=entry.round_index,
                start_id=entry.start_id,
            )
            raise
        synthesizer.settle(synthesis)
        accumulator.ingest(entry.results)
        contract_ids = tuple(sorted(synthesis.contract.atom_ids))
        accumulator.contracts.append(contract_ids)
        stop_reason = self._check_stop(entry.round_index, accumulator)
        if stop_reason is None and entry.round_index == self.rounds - 1:
            stop_reason = "budget-exhausted"
        record = self._record(
            entry.round_index,
            entry.start_id,
            len(entry.results),
            accumulator,
            synthesis,
            stop_reason,
            resumed=False,
            seconds=time.perf_counter() - entry.started,
        )
        self.tracer.record(
            "round",
            record.seconds,
            round=record.round_index,
            start_id=record.start_id,
            cases=record.cases,
            cumulative_cases=record.cumulative_cases,
            covered_atoms=record.covered_atoms,
            atom_coverage=record.atom_coverage,
            contract_size=record.contract_size,
            false_positives=record.false_positives,
            stop_reason=record.stop_reason,
        )
        metrics = current_metrics()
        metrics.counter("adaptive.rounds").inc()
        metrics.counter("adaptive.cases").inc(record.cases)
        metrics.gauge("adaptive.round.coverage").set(round(record.atom_coverage, 6))
        metrics.maybe_flush()
        records.append(record)
        if manifest is not None:
            manifest.append_round(
                entry.round_index,
                entry.start_id,
                entry.results,
                entry.state,
                contract_ids,
                synthesis.false_positives,
                # Only rule-based convergence persists: budget
                # exhaustion is relative to *this* run's round
                # budget, and an extended-rounds resume must be
                # free to continue past it.
                stop_reason if stop_reason != "budget-exhausted" else None,
            )
        self._emit(record)
        return synthesis

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

    def _dataset(self, results: Sequence[TestCaseResult]) -> EvaluationDataset:
        return EvaluationDataset(
            results,
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
        else:  # resumed round: diagnostics come from the stored entry
            false_positives = self._resumed_false_positives
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
            warm_started=False,
            resumed=resumed,
            stop_reason=stop_reason,
            seconds=seconds,
        )

    def _emit(self, record: RoundRecord) -> None:
        if self.progress is not None:
            self.progress(record)
