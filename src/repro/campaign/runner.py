"""The campaign runner: a grid of pipeline runs as one resumable unit.

:class:`CampaignRunner` executes every cell of a
:class:`~repro.campaign.spec.CampaignSpec` through
:class:`~repro.pipeline.SynthesisPipeline`, adding the three things a
single pipeline cannot provide:

**Cross-cell dataset reuse.**  Cells sharing a dataset group (core,
template, attacker, seed, extraction engine) are provisioned under one
lock: the first cell of a group evaluates and populates the pipeline
dataset cache, later cells hit it, and a cell whose budget is *smaller*
than an already-cached sibling derives its dataset as a prefix (test
cases are generated per test id, so ``dataset(n).prefix(m) ==
dataset(m)`` for the same stream).  Execution is ordered
largest-budget-first within each group, and whichever sibling
provisions first generates the group's largest *pending* budget, so
one generation serves the whole group even under parallel scheduling.

**Concurrent cells under a process budget.**  ``max_parallel_cells``
cells run on a thread pool; each cell's evaluation phase may fan out
through an ``EXECUTOR_REGISTRY`` backend, with the per-campaign
``process_budget`` (by default the CPUs the process may use) divided
evenly among concurrent cells so a 2x8 grid cannot fork 16 full-size
pools at once.

**Cell-granularity resumption.**  Completed cells are appended to a
:class:`~repro.campaign.manifest.CampaignManifest`; a killed (or
grid-extended) campaign re-runs only the cells missing from it.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.campaign.manifest import CampaignManifest
from repro.campaign.result import CampaignResult, CellOutcome
from repro.campaign.spec import CampaignCell, CampaignSpec, filter_cells
from repro.evaluation.backends.base import EvaluationExecutor
from repro.evaluation.backends.executors import usable_cpus
from repro.evaluation.results import EvaluationDataset
from repro.metrics.registry import Metrics, current_metrics, install_metrics
from repro.metrics.runs import record_run
from repro.pipeline import PipelineResult, SynthesisPipeline
from repro.pipeline.config import QUARANTINE_SUFFIX, superset_cache_path
from repro.reporting.tables import render_comparison_table
from repro.resilience.injection import maybe_inject
from repro.resilience.quarantine import FailureRecord, FailureSink
from repro.resilience.retry import RetryPolicy, effective_policy, retry_unit
from repro.trace.tracer import Tracer

#: Optional per-cell progress callback.
CellCallback = Callable[["CellProgress"], None]

@dataclass(frozen=True)
class CellProgress:
    """One per-cell progress event, emitted as cells complete."""

    cell: CampaignCell
    outcome: CellOutcome
    completed_cells: int
    total_cells: int
    #: True when the cell came from the campaign manifest instead of
    #: being executed in this run.
    resumed: bool
    elapsed_seconds: float


@dataclass
class CampaignStatus:
    """Manifest-derived completion state (``campaign status``)."""

    name: str
    manifest_path: Optional[str]
    completed: List[CampaignCell]
    pending: List[CampaignCell]

    @property
    def total(self) -> int:
        return len(self.completed) + len(self.pending)

    def render(self) -> str:
        rows = [[cell.label(), "done"] for cell in self.completed]
        rows += [[cell.label(), "pending"] for cell in self.pending]
        table = render_comparison_table(
            ["cell", "state"],
            rows,
            title="Campaign %r: %d/%d cells completed%s"
            % (
                self.name,
                len(self.completed),
                self.total,
                " (manifest: %s)" % self.manifest_path if self.manifest_path else "",
            ),
        )
        return table


class CampaignRunner:
    """Executes a :class:`CampaignSpec` cell by cell, resumably.

    Parameters mirror the experiment drivers: ``results_dir`` hosts the
    dataset cache (``cache=False`` disables caching *and* cross-cell
    reuse — every cell then measures live, which is what the timing
    experiments want) and the derived manifest path.  ``manifest`` is
    ``True`` (derive ``<results_dir>/campaigns/<name>.cells.jsonl``),
    a path, or ``False``; ``resume=False`` drops previously stored
    cells instead of reusing them.
    """

    def __init__(
        self,
        spec: CampaignSpec,
        results_dir: str = "results",
        cache: bool = True,
        executor: Union[None, str, "EvaluationExecutor"] = None,
        process_budget: Optional[int] = None,
        shard_size: Optional[int] = None,
        max_parallel_cells: int = 1,
        manifest: Union[bool, str] = True,
        resume: bool = True,
        filters: Optional[Mapping[str, str]] = None,
        progress: Optional[CellCallback] = None,
        keep_results: bool = True,
        trace: Union[None, str, Tracer] = None,
    ):
        if max_parallel_cells < 1:
            raise ValueError("max_parallel_cells must be at least 1")
        if process_budget is not None and process_budget < 1:
            raise ValueError("process_budget must be at least 1")
        self.spec = spec
        self.results_dir = results_dir
        self.cache = cache
        #: Evaluation executor backend for every cell — a registry
        #: name or an :class:`EvaluationExecutor` instance (e.g. a
        #: configured workqueue broker); ``None`` keeps the pipeline's
        #: default pool.
        self.executor = executor
        self.process_budget = process_budget
        self.shard_size = shard_size
        self.max_parallel_cells = max_parallel_cells
        self.manifest = manifest
        self.resume = resume
        self.filters = dict(filters or {})
        self.progress = progress
        self.keep_results = keep_results
        self._group_locks: Dict[tuple, threading.Lock] = {}
        self._locks_guard = threading.Lock()
        #: The current run's failure records and their sink (rebuilt
        #: per run; cells record from pool threads).
        self._failures: List[FailureRecord] = []
        self._sink = FailureSink()
        #: Campaign-level trace emitter: ``campaign-start``/``-end``
        #: events, one ``cell`` span per executed cell, a
        #: ``cell-resumed`` event per manifest-reused cell.  ``trace``
        #: is a path, a ready :class:`Tracer` (the contract service
        #: passes a child of its own), or ``None`` — which falls back
        #: to ``spec.trace_path``.  Cell pipelines get the same path,
        #: so one file interleaves every layer of the campaign.
        if isinstance(trace, Tracer):
            self.tracer = trace
        else:
            self.tracer = Tracer(
                trace if trace is not None else spec.trace_path,
                source="campaign",
            )

    # -- configuration surface -----------------------------------------

    def cells(self) -> List[CampaignCell]:
        """The (filtered) cell plan, in spec expansion order."""
        cells = self.spec.expand()
        if self.filters:
            cells = filter_cells(cells, self.filters)
            if not cells:
                raise ValueError(
                    "campaign filters %r match none of the %d cells"
                    % (self.filters, len(self.spec.expand()))
                )
        return cells

    def cache_dir(self) -> Optional[str]:
        if not self.cache:
            return None
        path = os.path.join(self.results_dir, "cache")
        os.makedirs(path, exist_ok=True)
        return path

    def manifest_path(self) -> Optional[str]:
        """The campaign manifest file, or ``None`` when disabled."""
        if self.manifest is False:
            return None
        if isinstance(self.manifest, str):
            return self.manifest
        return os.path.join(
            self.results_dir, "campaigns", "%s.cells.jsonl" % self.spec.name
        )

    def quarantine_path(self) -> str:
        """The campaign's quarantine :class:`FailureLog` file (created
        lazily, on the first quarantined cell)."""
        return os.path.join(
            self.results_dir, "campaigns", self.spec.name + QUARANTINE_SUFFIX
        )

    def cell_pipeline(
        self, cell: CampaignCell, processes: Optional[int] = None
    ) -> SynthesisPipeline:
        """The pipeline for one cell, under this runner's settings."""
        return cell.pipeline(
            cache_dir=self.cache_dir(),
            executor=self.executor,
            processes=processes,
            shard_size=self.shard_size,
            trace_path=self.tracer.path,
        )

    def status(self) -> CampaignStatus:
        """Completion state from the manifest, without executing."""
        cells = self.cells()
        path = self.manifest_path()
        stored = {}
        if path is not None and os.path.exists(path):
            stored = CampaignManifest(path, self.spec.name).stored(cells)
        completed = [cell for cell in cells if cell.key() in stored]
        pending = [cell for cell in cells if cell.key() not in stored]
        return CampaignStatus(
            name=self.spec.name,
            manifest_path=path,
            completed=completed,
            pending=pending,
        )

    def report(self) -> CampaignResult:
        """A :class:`CampaignResult` built purely from stored cells."""
        cells = self.cells()
        path = self.manifest_path()
        stored = {}
        if path is not None and os.path.exists(path):
            stored = CampaignManifest(path, self.spec.name).stored(cells)
        done = [cell for cell in cells if cell.key() in stored]
        return CampaignResult(
            spec=self.spec,
            cells=done,
            outcomes=[stored[cell.key()] for cell in done],
            manifest_path=path,
            pipeline_factory=self.cell_pipeline,
        )

    # -- execution -----------------------------------------------------

    def run(self) -> CampaignResult:
        """Execute every pending cell and return the aggregate result.

        Traced runs own the process-wide metrics registry for their
        duration (cell pipelines accumulate into it instead of
        installing their own) and append one campaign record to the
        results root's run-history index.
        """
        previous_metrics = None
        if self.tracer.enabled and not current_metrics().enabled:
            previous_metrics = install_metrics(Metrics(self.tracer))
        try:
            result = self._run()
        finally:
            if previous_metrics is not None:
                current_metrics().flush(final=True)
                install_metrics(previous_metrics)
        cases = sum(outcome.test_cases for outcome in result.outcomes)
        record_run(
            self.results_dir,
            kind="campaign",
            label=self.spec.name,
            seconds=result.total_seconds,
            cases=cases,
            phases={
                "cell:%s" % outcome.cell.label(): sum(
                    outcome.timings.values()
                )
                for outcome in result.outcomes
                if not outcome.resumed
            },
            extra={
                "cells": len(result.outcomes),
                "reused": sum(
                    1 for outcome in result.outcomes if outcome.dataset_reused
                ),
            },
        )
        return result

    def _run(self) -> CampaignResult:
        started = time.perf_counter()
        self._failures = []
        self._sink = FailureSink(
            self.tracer,
            self._failures.append,
            self.quarantine_path(),
            {"campaign": self.spec.name},
        )
        cells = self.cells()
        path = self.manifest_path()
        manifest = CampaignManifest(path, self.spec.name) if path else None
        if manifest is not None and not self.resume:
            manifest.reset()
        stored = manifest.stored(cells) if manifest is not None else {}
        self.tracer.event(
            "campaign-start", campaign=self.spec.name, cells=len(cells)
        )

        outcomes: Dict[str, CellOutcome] = {}
        pipeline_results: Dict[str, PipelineResult] = {}
        completed = 0

        def emit(outcome: CellOutcome, resumed: bool) -> None:
            nonlocal completed
            completed += 1
            if self.progress is not None:
                self.progress(
                    CellProgress(
                        cell=outcome.cell,
                        outcome=outcome,
                        completed_cells=completed,
                        total_cells=len(cells),
                        resumed=resumed,
                        elapsed_seconds=time.perf_counter() - started,
                    )
                )

        for cell in cells:
            key = cell.key()
            if key in stored:
                outcomes[key] = stored[key]
                self.tracer.event("cell-resumed", cell=cell.label())
                emit(stored[key], resumed=True)
        pending = [cell for cell in cells if cell.key() not in outcomes]

        def handle(
            cell: CampaignCell, result: PipelineResult, dataset_reused: bool
        ) -> None:
            outcome = CellOutcome.from_pipeline_result(
                cell, result, dataset_reused=dataset_reused
            )
            if manifest is not None:
                manifest.append_cell(outcome)
            outcomes[cell.key()] = outcome
            if self.keep_results:
                pipeline_results[cell.key()] = result
            if result.failures:
                # Surface each cell's shard-level retries/quarantines
                # on the campaign result too.
                self._failures.extend(result.failures)
            emit(outcome, resumed=False)

        # Largest budget first within each dataset group, so smaller
        # sibling budgets derive their dataset by prefix instead of
        # regenerating (the plan order of the result is unaffected).
        # group_max carries each group's largest pending budget, so the
        # invariant survives parallel scheduling too: whichever sibling
        # provisions first evaluates the group maximum once and every
        # other budget is derived from it.
        ordered = sorted(pending, key=lambda cell: (cell.dataset_group(), -cell.budget))
        group_max: Dict[tuple, int] = {}
        for cell in pending:
            group = cell.dataset_group()
            group_max[group] = max(group_max.get(group, 0), cell.budget)
        if self.max_parallel_cells == 1 or len(ordered) <= 1:
            for cell in ordered:
                executed = self._execute(cell, 1, group_max)
                if executed is not None:  # None → quarantined, skip
                    handle(cell, *executed)
        else:
            self._run_parallel(ordered, group_max, handle)

        self.tracer.event(
            "campaign-end",
            campaign=self.spec.name,
            completed=completed,
            seconds=round(time.perf_counter() - started, 6),
        )
        return CampaignResult(
            spec=self.spec,
            cells=cells,
            # Quarantined cells have no outcome — they live in
            # ``failures`` (kind="cell") and the quarantine log.
            outcomes=[
                outcomes[cell.key()] for cell in cells if cell.key() in outcomes
            ],
            manifest_path=path,
            total_seconds=time.perf_counter() - started,
            pipeline_results=pipeline_results,
            pipeline_factory=self.cell_pipeline,
            failures=list(self._failures),
        )

    def _run_parallel(
        self,
        ordered: List[CampaignCell],
        group_max: Dict[tuple, int],
        handle: Callable[[CampaignCell, PipelineResult, bool], None],
    ) -> None:
        """Fan pending cells out on a thread pool.  Each cell is
        handled (manifest append, progress) in the submitting thread
        the moment it completes, so a killed parallel campaign keeps
        every finished cell.  On a cell failure, completed siblings are
        still checkpointed, the not-yet-started rest is cancelled, and
        the failure re-raises.  A ``KeyboardInterrupt`` (almost always
        delivered inside the ``wait`` call, where this thread spends
        its time) likewise flushes every already-completed cell to the
        manifest before propagating — Ctrl-C must never cost finished
        work."""
        workers = min(self.max_parallel_cells, len(ordered))
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(self._execute, cell, workers, group_max): cell
                for cell in ordered
            }
            remaining = set(futures)

            def consume(future) -> None:
                executed = future.result()
                if executed is not None:  # None → quarantined, skip
                    handle(futures[future], *executed)

            try:
                while remaining:
                    done, remaining = wait(remaining, return_when=FIRST_COMPLETED)
                    failure = None
                    for future in done:
                        error = future.exception()
                        if error is not None:
                            failure = error
                            continue
                        consume(future)
                    if failure is not None:
                        for pending_future in remaining:
                            pending_future.cancel()
                        raise failure
            except KeyboardInterrupt:
                # The interrupt hit between a future completing and its
                # handle() — the cells in ``remaining`` that are already
                # done would silently lose their results.  Cancel the
                # rest, checkpoint the finished ones, then propagate.
                for future in remaining:
                    future.cancel()
                for future in remaining:
                    if (
                        future.done()
                        and not future.cancelled()
                        and future.exception() is None
                    ):
                        consume(future)
                raise

    def _execute(
        self, cell: CampaignCell, concurrent: int, group_max: Dict[tuple, int]
    ) -> Optional[Tuple[PipelineResult, bool]]:
        """Run one cell's pipeline; returns ``(result, dataset_reused)``,
        or ``None`` when the cell exhausted its retries and was
        quarantined (recorded durably; the campaign continues)."""
        processes = None
        if self.process_budget is not None:
            processes = max(1, self.process_budget // max(1, concurrent))
        elif concurrent > 1:
            # Concurrent cells split the usable CPUs, so N cell threads
            # do not each fork a full-size pool.
            processes = max(1, usable_cpus() // concurrent)
        policy = effective_policy(
            None if cell.retries is None else RetryPolicy.from_retries(cell.retries),
            cell.shard_timeout,
        )

        def attempt_cell(attempt: int) -> Tuple[PipelineResult, bool]:
            cell_span = self.tracer.span("cell", cell=cell.label(), attempt=attempt)
            with cell_span:
                maybe_inject("cell", cell=cell.label(), attempt=attempt)
                pipeline = self.cell_pipeline(cell, processes=processes)
                dataset_reused = self._provision_dataset(pipeline, cell, group_max)
                result = pipeline.run()
                cell_span.add(
                    atoms=result.atom_count,
                    false_positives=result.false_positives,
                    cases=len(result.dataset),
                    dataset_reused=dataset_reused,
                )
            return result, dataset_reused

        return retry_unit(
            attempt_cell,
            policy,
            self._sink,
            "cell",
            {"cell": cell.label()},
            quarantine=True,
        )

    # -- cross-cell dataset provisioning --------------------------------

    def _group_lock(self, cell: CampaignCell) -> threading.Lock:
        with self._locks_guard:
            return self._group_locks.setdefault(cell.dataset_group(), threading.Lock())

    def _provision_dataset(
        self,
        pipeline: SynthesisPipeline,
        cell: CampaignCell,
        group_max: Optional[Dict[tuple, int]] = None,
    ) -> bool:
        """Ensure the cell's dataset cache entry exists before its
        pipeline runs; returns ``True`` when the cell performed zero
        generation work (exact cache hit or prefix of a larger cached
        budget).  Serialized per dataset group so concurrent sibling
        cells never evaluate one corpus twice.

        When the group has a pending sibling with a *larger* budget
        (``group_max``), generation targets that budget instead — this
        cell takes a prefix and the sibling later finds its exact
        cache entry — so the one-generation-per-group invariant holds
        even when parallel scheduling runs a small budget first."""
        cache_path = pipeline.cache_path()
        if cache_path is None:
            return False
        with self._group_lock(cell):
            if os.path.exists(cache_path):
                return True
            superset = superset_cache_path(cache_path, cell.budget)
            if superset is not None:
                EvaluationDataset.load(superset).prefix(cell.budget).save(cache_path)
                current_metrics().counter("dataset.prefix.derived").inc()
                return True
            target = max(cell.budget, (group_max or {}).get(cell.dataset_group(), 0))
            if target > cell.budget:
                # Evaluate the group's largest pending budget once,
                # under *its* cache key, and serve this cell a prefix.
                self.cell_pipeline(replace(cell, budget=target)).evaluate()
                EvaluationDataset.load(
                    superset_cache_path(cache_path, cell.budget)
                ).prefix(cell.budget).save(cache_path)
                current_metrics().counter("dataset.prefix.derived").inc()
                return False
            pipeline.evaluate()  # populates the cache for run() and siblings
            return False


def run_campaign(spec: CampaignSpec, **kwargs) -> CampaignResult:
    """Convenience wrapper: ``CampaignRunner(spec, **kwargs).run()``."""
    return CampaignRunner(spec, **kwargs).run()
