"""Campaign outcomes: per-cell summaries and cross-config tables.

A :class:`CellOutcome` is the manifest-persistable distillation of one
cell's :class:`~repro.pipeline.PipelineResult` — the selected atom
ids, the synthesis diagnostics, the verification verdict, and the
phase timings — everything the comparison tables and the experiment
drivers need without holding the evaluated dataset.  The contract
itself is reconstructible (``Contract(template, atom_ids)``) because
cells address templates by registry name.

:class:`CampaignResult` aggregates the outcomes of one campaign run
and renders them as a cross-configuration comparison table through
:mod:`repro.reporting` — only the axes that actually vary across the
grid become columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.campaign.spec import AXES, CampaignCell, CampaignSpec
from repro.contracts.riscv_template import TEMPLATE_REGISTRY
from repro.contracts.template import Contract, template_digest
from repro.pipeline import PipelineResult, SynthesisPipeline
from repro.reporting.tables import render_comparison_table
from repro.resilience.quarantine import FailureRecord

#: Phase-timing keys persisted per cell (seconds).
TIMING_KEYS = (
    "setup",
    "evaluation",
    "simulation",
    "extraction",
    "synthesis",
    "verification",
    "total",
)


@dataclass(frozen=True)
class CellOutcome:
    """The persistable summary of one executed campaign cell."""

    cell: CampaignCell
    #: Sorted atom ids of the synthesized contract.
    atom_ids: Tuple[int, ...]
    false_positives: int
    test_cases: int
    distinguishable: int
    optimal: bool
    solver_name: str
    #: Verification verdict (``None`` when verification was skipped).
    satisfied: Optional[bool]
    #: Phase name -> wall seconds (:data:`TIMING_KEYS`).
    timings: Dict[str, float]
    #: The cell's dataset came from the pipeline cache.
    cache_hit: bool
    #: A campaign cell's run loaded its dataset from the cache (exact
    #: key or prefix of a larger cached budget) — the cell performed
    #: zero generation work.
    dataset_reused: bool
    #: The outcome came from the campaign manifest, not this run.
    resumed: bool = False
    #: Digest of the template's atom list at execution time.  The cell
    #: names its template by registry name only; the manifest compares
    #: this digest against the currently registered template so an
    #: outcome computed under a differently-defined template of the
    #: same name is re-run instead of silently resumed.
    template_digest: str = ""
    #: Structured failure records of the cell's pipeline run (shard
    #: retries/quarantines, executor downgrades); empty on clean runs.
    failures: Tuple[FailureRecord, ...] = ()

    @property
    def atom_count(self) -> int:
        return len(self.atom_ids)

    def contract(self) -> Contract:
        """Rebuild the synthesized contract from the registry template."""
        template = TEMPLATE_REGISTRY.create(self.cell.template)
        return Contract(template, self.atom_ids)

    @staticmethod
    def from_pipeline_result(
        cell: CampaignCell, result: PipelineResult, dataset_reused: bool = False
    ) -> "CellOutcome":
        timings = result.timings
        return CellOutcome(
            cell=cell,
            atom_ids=tuple(sorted(result.contract.atom_ids)),
            false_positives=result.false_positives,
            test_cases=len(result.dataset),
            distinguishable=len(result.dataset.distinguishable),
            optimal=result.synthesis.solver_result.optimal,
            solver_name=result.synthesis.solver_result.solver_name,
            satisfied=result.satisfied,
            timings={
                "setup": timings.setup_seconds,
                "evaluation": timings.evaluation_seconds,
                "simulation": timings.simulation_seconds,
                "extraction": timings.extraction_seconds,
                "synthesis": timings.synthesis_seconds,
                "verification": timings.verification_seconds,
                "total": timings.total_seconds,
            },
            cache_hit=timings.cache_hit,
            dataset_reused=dataset_reused,
            template_digest=template_digest(result.contract.template),
            failures=tuple(result.failures),
        )

    # -- manifest serialization ----------------------------------------

    def to_dict(self) -> dict:
        return {
            "cell": self.cell.identity(),
            "atom_ids": list(self.atom_ids),
            "false_positives": self.false_positives,
            "test_cases": self.test_cases,
            "distinguishable": self.distinguishable,
            "optimal": self.optimal,
            "solver_name": self.solver_name,
            "satisfied": self.satisfied,
            "timings": {key: self.timings.get(key, 0.0) for key in TIMING_KEYS},
            "cache_hit": self.cache_hit,
            "dataset_reused": self.dataset_reused,
            "template_digest": self.template_digest,
            "failures": [record.to_dict() for record in self.failures],
        }

    @staticmethod
    def from_dict(data: dict, resumed: bool = False) -> "CellOutcome":
        return CellOutcome(
            cell=CampaignCell(**data["cell"]),
            atom_ids=tuple(data["atom_ids"]),
            false_positives=data["false_positives"],
            test_cases=data["test_cases"],
            distinguishable=data["distinguishable"],
            optimal=data["optimal"],
            solver_name=data["solver_name"],
            satisfied=data["satisfied"],
            timings=dict(data["timings"]),
            cache_hit=data["cache_hit"],
            dataset_reused=data["dataset_reused"],
            resumed=resumed,
            template_digest=data.get("template_digest", ""),
            # Absent in manifests written before the resilience layer.
            failures=tuple(
                FailureRecord.from_dict(entry) for entry in data.get("failures", [])
            ),
        )


def varying_axes(cells: Sequence[CampaignCell]) -> List[str]:
    """The axes taking more than one value across ``cells`` — the
    informative columns of a comparison table."""
    axes = []
    for axis in AXES:
        if len({cell.axis(axis) for cell in cells}) > 1:
            axes.append(axis)
    return axes


@dataclass
class CampaignResult:
    """Everything one campaign run produced, in plan order."""

    spec: CampaignSpec
    cells: List[CampaignCell]
    outcomes: List[CellOutcome]
    manifest_path: Optional[str] = None
    total_seconds: float = 0.0
    #: Full pipeline results for cells executed in this run (resumed
    #: cells have outcomes only); rebuildable via :meth:`result_for`.
    pipeline_results: Dict[str, PipelineResult] = field(default_factory=dict)
    #: Rebuilds a cell's pipeline (runner-provided), for
    #: :meth:`result_for` on resumed cells.
    pipeline_factory: Optional[Callable[[CampaignCell], SynthesisPipeline]] = None
    #: Campaign-level failure records from this run: cell retries and
    #: quarantines, plus every executed cell's own pipeline failures.
    failures: List[FailureRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._by_key = {outcome.cell.key(): outcome for outcome in self.outcomes}

    # -- selection -----------------------------------------------------

    def outcome_for(self, cell: CampaignCell) -> CellOutcome:
        return self._by_key[cell.key()]

    def select(self, **axes) -> List[CellOutcome]:
        """Outcomes whose cells match every ``axis=value`` keyword."""
        selected = []
        for outcome in self.outcomes:
            if all(outcome.cell.axis(axis) == value for axis, value in axes.items()):
                selected.append(outcome)
        return selected

    def outcome(self, **axes) -> CellOutcome:
        """The single outcome matching ``axes`` (raises otherwise)."""
        selected = self.select(**axes)
        if len(selected) != 1:
            raise KeyError(
                "expected exactly one cell matching %r, found %d"
                % (axes, len(selected))
            )
        return selected[0]

    def result_for(self, cell: CampaignCell) -> PipelineResult:
        """The full :class:`PipelineResult` of ``cell``.

        Cells executed in this run return their in-memory result; a
        resumed cell re-runs its pipeline (cheap when the dataset cache
        is warm — evaluation is a cache hit, only synthesis repeats).
        """
        key = cell.key()
        if key in self.pipeline_results:
            return self.pipeline_results[key]
        if self.pipeline_factory is None:
            raise KeyError(
                "no in-memory result for cell %s and no pipeline factory "
                "to rebuild it" % cell.label()
            )
        result = self.pipeline_factory(cell).run()
        self.pipeline_results[key] = result
        return result

    # -- aggregation ---------------------------------------------------

    @property
    def resumed_count(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.resumed)

    @property
    def quarantined_cells(self) -> List[FailureRecord]:
        """Cells dropped after exhausting their retries (no outcome)."""
        return [record for record in self.failures if record.kind == "cell"]

    def comparison_table(self) -> str:
        """The cross-configuration comparison table: one row per cell,
        one column per *varying* axis plus the synthesis metrics."""
        axes = varying_axes(self.cells) or ["core"]
        headers = list(axes) + [
            "cases",
            "dist",
            "atoms",
            "FPs",
            "optimal",
            "verified",
            "total s",
            "dataset",
        ]
        rows = []
        for outcome in self.outcomes:
            cell = outcome.cell
            row = []
            for axis in axes:
                value = cell.axis(axis)
                row.append("-" if value is None else str(value))
            if outcome.satisfied is None:
                verified = "skipped"
            else:
                verified = "yes" if outcome.satisfied else "VIOLATED"
            if outcome.resumed:
                dataset = "resumed"
            elif outcome.dataset_reused:
                dataset = "reused"
            else:
                dataset = "fresh"
            row.extend(
                [
                    str(outcome.test_cases),
                    str(outcome.distinguishable),
                    str(outcome.atom_count),
                    str(outcome.false_positives),
                    "yes" if outcome.optimal else "no",
                    verified,
                    "%.3f" % outcome.timings.get("total", 0.0),
                    dataset,
                ]
            )
            rows.append(row)
        return render_comparison_table(
            headers,
            rows,
            title="Campaign %r — %d cells (%d resumed)"
            % (self.spec.name, len(self.outcomes), self.resumed_count),
        )

    def render(self) -> str:
        lines = [self.comparison_table()]
        quarantined = self.quarantined_cells
        if quarantined:
            lines.append(
                "quarantined: %d cell(s) dropped after exhausting retries (%s)"
                % (
                    len(quarantined),
                    "; ".join(
                        str(record.unit.get("cell", record.unit))
                        for record in quarantined
                    ),
                )
            )
        lines.append(
            "campaign wall time: %.3fs%s"
            % (
                self.total_seconds,
                " (manifest: %s)" % self.manifest_path if self.manifest_path else "",
            )
        )
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "CampaignResult(%s: %d cells, %d resumed)" % (
            self.spec.name,
            len(self.outcomes),
            self.resumed_count,
        )
