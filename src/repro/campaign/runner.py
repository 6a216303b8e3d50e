"""The campaign runner: a grid of pipeline runs as one resumable unit.

:class:`CampaignRunner` executes every cell of a
:class:`~repro.campaign.spec.CampaignSpec` through
:class:`~repro.pipeline.SynthesisPipeline`, one cell at a time in the
calling thread, adding what a single pipeline cannot provide:

**Cross-cell dataset reuse.**  Every cell's pipeline shares the
campaign's dataset cache, so cells of one dataset group (core,
template, attacker, seed, extraction engine) generate their corpus
once: a later cell hits the cached file, and a cell whose budget is
*smaller* than a cached sibling's takes its prefix (see
:meth:`~repro.pipeline.SynthesisPipeline.cache_dir`).  Pending cells
run largest budget first within each group, so the group's largest
budget is the one generated.

**Cell-granularity resumption.**  Completed cells are appended to a
:class:`~repro.campaign.manifest.CampaignManifest`; a killed (or
grid-extended) campaign re-runs only the cells missing from it.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Union

from repro.campaign.manifest import CampaignManifest
from repro.campaign.result import CampaignResult, CellOutcome
from repro.campaign.spec import CampaignCell, CampaignSpec, filter_cells
from repro.evaluation.backends.base import EvaluationExecutor
from repro.metrics.registry import Metrics, current_metrics, install_metrics
from repro.metrics.runs import record_run
from repro.pipeline import PipelineResult, SynthesisPipeline
from repro.pipeline.config import QUARANTINE_SUFFIX
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
    cells instead of reusing them.  ``processes`` sizes every cell's
    worker pool (default: the usable CPUs, at most 8).
    """

    def __init__(
        self,
        spec: CampaignSpec,
        results_dir: str = "results",
        cache: bool = True,
        executor: Union[None, str, "EvaluationExecutor"] = None,
        processes: Optional[int] = None,
        shard_size: Optional[int] = None,
        manifest: Union[bool, str] = True,
        resume: bool = True,
        filters: Optional[Mapping[str, str]] = None,
        progress: Optional[CellCallback] = None,
        keep_results: bool = True,
        trace: Union[None, str, Tracer] = None,
    ):
        if processes is not None and processes < 1:
            raise ValueError("processes must be at least 1")
        self.spec = spec
        self.results_dir = results_dir
        self.cache = cache
        #: Evaluation executor backend for every cell — a registry
        #: name or an :class:`EvaluationExecutor` instance (e.g. a
        #: configured workqueue broker); ``None`` keeps the pipeline's
        #: default pool.
        self.executor = executor
        self.processes = processes
        self.shard_size = shard_size
        self.manifest = manifest
        self.resume = resume
        self.filters = dict(filters or {})
        self.progress = progress
        self.keep_results = keep_results
        #: The current run's failure records and their sink (rebuilt
        #: per run).
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

    def cell_pipeline(self, cell: CampaignCell) -> SynthesisPipeline:
        """The pipeline for one cell, under this runner's settings."""
        return cell.pipeline(
            cache_dir=self.cache_dir(),
            executor=self.executor,
            processes=self.processes,
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
                "cell:%s" % outcome.cell.label(): outcome.timings["total"]
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

        # Largest budget first within each dataset group, so smaller
        # sibling budgets take a prefix of the group's one generated
        # corpus (the plan order of the result is unaffected).
        for cell in sorted(
            pending, key=lambda cell: (cell.dataset_group(), -cell.budget)
        ):
            result = self._execute(cell)
            if result is None:  # quarantined: the campaign goes on
                continue
            outcome = CellOutcome.from_pipeline_result(
                cell, result, dataset_reused=result.timings.cache_hit
            )
            if manifest is not None:
                manifest.append_cell(outcome)
            outcomes[cell.key()] = outcome
            if self.keep_results:
                pipeline_results[cell.key()] = result
            # Surface each cell's shard-level retries/quarantines on
            # the campaign result too.
            self._failures.extend(result.failures)
            emit(outcome, resumed=False)

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

    def _execute(self, cell: CampaignCell) -> Optional[PipelineResult]:
        """Run one cell's pipeline, or return ``None`` when the cell
        exhausted its retries and was quarantined (recorded durably;
        the campaign continues)."""
        policy = effective_policy(
            None if cell.retries is None else RetryPolicy.from_retries(cell.retries),
            cell.shard_timeout,
        )

        def attempt_cell(attempt: int) -> PipelineResult:
            cell_span = self.tracer.span("cell", cell=cell.label(), attempt=attempt)
            with cell_span:
                maybe_inject("cell", cell=cell.label(), attempt=attempt)
                result = self.cell_pipeline(cell).run()
                cell_span.add(
                    atoms=result.atom_count,
                    false_positives=result.false_positives,
                    cases=len(result.dataset),
                    dataset_reused=result.timings.cache_hit,
                )
            return result

        return retry_unit(
            attempt_cell,
            policy,
            self._sink,
            "cell",
            {"cell": cell.label()},
            quarantine=True,
        )


def run_campaign(spec: CampaignSpec, **kwargs) -> CampaignResult:
    """Convenience wrapper: ``CampaignRunner(spec, **kwargs).run()``."""
    return CampaignRunner(spec, **kwargs).run()
