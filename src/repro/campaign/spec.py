"""Campaign specifications: declarative grids of pipeline configurations.

A :class:`CampaignSpec` names one value list per pipeline axis (cores,
attackers, templates, restrictions, solvers, budgets, seeds) and
expands into the cross product of :class:`CampaignCell`\\ s — each cell
one complete :class:`~repro.pipeline.SynthesisPipeline` configuration,
addressed entirely by registry names so cells serialize into the
campaign manifest and rebuild inside executor workers.

Two escape hatches keep real grids declarative:

- ``overrides`` maps an axis *value* to cell-field replacements, e.g.
  ``{"cva6": {"budget": 3000}}`` shrinks every CVA6 cell's budget the
  way the paper uses a smaller CVA6 synthesis set;
- ``exclude`` drops cells, either a predicate ``cell -> bool`` or a
  list of partial axis dicts (a cell matching *all* items of any dict
  is dropped).

Expansion validates every name against the owning registry up front,
so a typo fails before any cell has burned compute.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from itertools import product
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Union,
)

from repro.evaluation.backends.base import EvaluationExecutor
from repro.pipeline import SynthesisPipeline
from repro.pipeline.config import PipelineConfig, cell_identity

#: The sweep axes, in expansion (and display) order.
AXES = (
    "core",
    "attacker",
    "template",
    "restriction",
    "solver",
    "generator",
    "budget",
    "seed",
)

#: ``exclude`` may be a predicate or a list of partial axis matches.
ExcludeLike = Union[
    Callable[["CampaignCell"], bool], Sequence[Mapping[str, object]], None
]


@dataclass(frozen=True)
class CampaignCell:
    """One point of the grid: a complete pipeline configuration.

    Every plugin is a registry name (never an instance), so a cell can
    be stored in the campaign manifest, compared across runs, and
    rebuilt anywhere.
    """

    core: str
    attacker: str
    template: str
    restriction: Optional[str]
    solver: str
    budget: int
    seed: int
    #: Generation strategy (``GENERATOR_REGISTRY`` name).
    generator: str = "random"
    #: ``None`` → the classic one-shot pipeline; ``n`` → an adaptive
    #: run of up to ``n`` rounds whose per-round batch is ``batch``
    #: (default: the cell budget split evenly across the rounds, so
    #: ``budget`` stays the cell's total case ceiling on both paths).
    adaptive_rounds: Optional[int] = None
    batch: Optional[int] = None
    #: Stopping rule of an adaptive cell (``STOPPING_REGISTRY`` name;
    #: ``None`` → the pipeline default, ``contract-stable``).
    stop: Optional[str] = None
    #: ``True`` runs the fast evaluator, ``False`` the reference oracle.
    fastpath: bool = True
    #: Pipeline verification budget: ``None`` checks the synthesized
    #: contract against its own dataset, ``0`` skips, ``n`` runs
    #: directed satisfaction testing.
    verify: Optional[int] = None
    #: Per-shard retry budget of the cell's evaluation phase (``None``
    #: → the default policy with a ``shard_timeout``, else no retries).
    #: Also the cell's own budget in the runner: a cell whose pipeline
    #: keeps failing retryably is re-run up to ``retries`` times and
    #: then quarantined instead of aborting the campaign.
    retries: Optional[int] = None
    #: Soft per-shard deadline in seconds (``None`` → no watchdog).
    shard_timeout: Optional[float] = None

    def identity(self) -> dict:
        """The manifest and store key of this cell: every field that
        changes its :class:`~repro.pipeline.PipelineResult` (see
        :func:`~repro.pipeline.config.cell_identity`)."""
        return cell_identity(self)

    def key(self) -> str:
        """A canonical string key (dict-order independent)."""
        return json.dumps(self.identity(), sort_keys=True)

    def label(self) -> str:
        """A compact human-readable cell label."""
        label = (
            "core=%s attacker=%s template=%s restrict=%s solver=%s "
            "budget=%d seed=%d"
            % (
                self.core,
                self.attacker,
                self.template,
                self.restriction if self.restriction is not None else "-",
                self.solver,
                self.budget,
                self.seed,
            )
        )
        if self.generator != "random" or self.adaptive_rounds is not None:
            label += " generator=%s" % self.generator
        if self.adaptive_rounds is not None:
            label += " rounds=%d" % self.adaptive_rounds
        return label

    def axis(self, name: str) -> object:
        """The cell's value on one of :data:`AXES`."""
        if name not in AXES:
            raise ValueError(
                "unknown campaign axis %r (axes: %s)" % (name, ", ".join(AXES))
            )
        return getattr(self, name)

    def dataset_group(self) -> tuple:
        """The axes determining the evaluated dataset *stream* — the
        dataset cache key minus the budget (see
        :meth:`~repro.pipeline.config.PipelineConfig.dataset_group`).
        Cells in one group share test cases, so a cached dataset of a
        larger budget serves any smaller budget by prefix."""
        return PipelineConfig.from_cell(self).dataset_group()

    def pipeline(
        self,
        cache_dir: Optional[str] = None,
        executor: Union[None, str, EvaluationExecutor] = None,
        processes: Optional[int] = None,
        shard_size: Optional[int] = None,
        trace_path: Optional[str] = None,
    ) -> SynthesisPipeline:
        """A :class:`SynthesisPipeline` configured exactly as this cell.

        ``trace_path`` wires the cell's run into a shared trace file
        (its phase/round/shard spans interleave with the campaign's
        cell spans); like executor sizing it is runner-level plumbing,
        never part of the cell identity."""
        pipeline = SynthesisPipeline(PipelineConfig.from_cell(self)).cache_dir(
            cache_dir
        )
        if self.retries is not None:
            # N retries == N+1 attempts, the CLI/runner spelling.
            pipeline.retry(self.retries + 1)
        if self.shard_timeout is not None:
            pipeline.timeout(self.shard_timeout)
        pipeline.executor(executor, processes=processes, shard_size=shard_size)
        if trace_path is not None:
            pipeline.trace(trace_path)
        return pipeline


#: Cell fields an ``overrides`` entry may replace.
_OVERRIDABLE = tuple(f.name for f in fields(CampaignCell))


@dataclass
class CampaignSpec:
    """A declarative grid of pipeline configurations.

    ``expand()`` produces the cross product of all axis value lists as
    :class:`CampaignCell`\\ s — overrides applied, excluded cells
    dropped, duplicates (e.g. collapsed by an override) removed — in a
    deterministic order: the axes nest left-to-right as declared in
    :data:`AXES`, so the last axis (seed) varies fastest.
    """

    name: str
    cores: Sequence[str] = ("ibex",)
    attackers: Sequence[str] = ("retirement-timing",)
    templates: Sequence[str] = ("riscv-rv32im",)
    restrictions: Sequence[Optional[str]] = (None,)
    solvers: Sequence[str] = ("scipy-milp",)
    generators: Sequence[str] = ("random",)
    budgets: Sequence[int] = (1000,)
    seeds: Sequence[int] = (0,)
    #: Applied to every cell (overridable per axis value): ``None``
    #: keeps cells on the classic one-shot pipeline, ``n`` runs each
    #: cell as an adaptive loop of up to ``n`` rounds with per-round
    #: batches of ``batch`` (default: budget split across rounds) and
    #: the ``stop`` stopping rule (default: contract-stable).
    adaptive_rounds: Optional[int] = None
    batch: Optional[int] = None
    stop: Optional[str] = None
    fastpath: bool = True
    verify: Optional[int] = None
    #: Fault tolerance, applied to every cell (overridable per axis
    #: value): ``retries`` grants each cell (and each of its evaluation
    #: shards) that many retries before quarantine; ``shard_timeout``
    #: arms the per-shard watchdog (alone, with the default retries).
    retries: Optional[int] = None
    shard_timeout: Optional[float] = None
    #: Trace file every cell (and the runner itself) appends spans to.
    #: Pure observability: not a cell axis, never part of any cell
    #: identity or cache key — tracing on and off produce identical
    #: results.  ``CampaignRunner``'s ``trace`` argument overrides it.
    trace_path: Optional[str] = None
    #: Axis value -> cell-field replacements, applied to every cell
    #: carrying that value on any axis (e.g. ``{"cva6": {"budget":
    #: 3000}}``).
    overrides: Mapping[str, Mapping[str, object]] = field(default_factory=dict)
    #: Cells to drop: a predicate or partial axis dicts (see module
    #: docstring).
    exclude: ExcludeLike = None

    def grid_shape(self) -> Dict[str, int]:
        """Axis -> declared value count (before overrides/excludes)."""
        return {
            "core": len(self.cores),
            "attacker": len(self.attackers),
            "template": len(self.templates),
            "restriction": len(self.restrictions),
            "solver": len(self.solvers),
            "generator": len(self.generators),
            "budget": len(self.budgets),
            "seed": len(self.seeds),
        }

    def expand(self) -> List[CampaignCell]:
        """The grid as a deduplicated, validated list of cells."""
        self._validate()
        cells: List[CampaignCell] = []
        seen = set()
        for (
            core,
            attacker,
            template,
            restriction,
            solver,
            generator,
            budget,
            seed,
        ) in product(
            self.cores,
            self.attackers,
            self.templates,
            self.restrictions,
            self.solvers,
            self.generators,
            self.budgets,
            self.seeds,
        ):
            cell = CampaignCell(
                core=core,
                attacker=attacker,
                template=template,
                restriction=restriction,
                solver=solver,
                budget=int(budget),
                seed=int(seed),
                generator=generator,
                adaptive_rounds=self.adaptive_rounds,
                batch=self.batch,
                stop=self.stop,
                fastpath=self.fastpath,
                verify=self.verify,
                retries=self.retries,
                shard_timeout=self.shard_timeout,
            )
            cell = self._apply_overrides(cell)
            if cell in seen or self._excluded(cell):
                continue
            seen.add(cell)
            cells.append(cell)
        if not cells:
            raise ValueError(
                "campaign %r expands to zero cells (all excluded?)" % self.name
            )
        return cells

    # -- expansion helpers ---------------------------------------------

    def _apply_overrides(self, cell: CampaignCell) -> CampaignCell:
        for axis in AXES:
            value = getattr(cell, axis)
            changes = self.overrides.get(value) if isinstance(value, str) else None
            if changes:
                cell = replace(cell, **dict(changes))
        return cell

    def _excluded(self, cell: CampaignCell) -> bool:
        if self.exclude is None:
            return False
        if callable(self.exclude):
            return bool(self.exclude(cell))
        for match in self.exclude:
            if all(cell.axis(axis) == value for axis, value in match.items()):
                return True
        return False

    def _validate(self) -> None:
        """Fail fast on empty axes, unknown names, bad overrides."""
        from repro.pipeline.registries import REGISTRIES

        if not self.name:
            raise ValueError("a campaign needs a non-empty name")
        named_axes = (
            ("cores", self.cores, REGISTRIES["cores"]),
            ("attackers", self.attackers, REGISTRIES["attackers"]),
            ("templates", self.templates, REGISTRIES["templates"]),
            ("solvers", self.solvers, REGISTRIES["solvers"]),
            ("generators", self.generators, REGISTRIES["generators"]),
        )
        for axis_name, values, registry in named_axes:
            if not values:
                raise ValueError("campaign axis %r is empty" % axis_name)
            for value in values:
                if value not in registry:
                    raise ValueError(
                        "campaign axis %r: unknown %s %r (registered: %s)"
                        % (axis_name, registry.kind, value, ", ".join(registry.names()))
                    )
        restriction_registry = REGISTRIES["restrictions"]
        if not self.restrictions:
            raise ValueError("campaign axis 'restrictions' is empty")
        for value in self.restrictions:
            if value is not None and value not in restriction_registry:
                raise ValueError(
                    "campaign axis 'restrictions': unknown restriction %r "
                    "(registered: %s, or None for the unrestricted template)"
                    % (value, ", ".join(restriction_registry.names()))
                )
        if not self.budgets or not self.seeds:
            raise ValueError("campaign axes 'budgets'/'seeds' must be non-empty")
        for budget in self.budgets:
            if int(budget) < 0:
                raise ValueError("campaign budgets must be non-negative")
        if self.adaptive_rounds is not None and self.adaptive_rounds < 1:
            raise ValueError("adaptive_rounds must be at least 1")
        if self.batch is not None and self.batch < 1:
            raise ValueError("batch must be at least 1")
        if self.adaptive_rounds is None and (
            self.batch is not None or self.stop is not None
        ):
            raise ValueError(
                "batch/stop only apply to adaptive cells: set adaptive_rounds"
            )
        if self.adaptive_rounds is not None and self.batch is None:
            for budget in self.budgets:
                if int(budget) < 1:
                    raise ValueError(
                        "adaptive cells derive their per-round batch from "
                        "the budget: budgets must be positive (or set an "
                        "explicit batch)"
                    )
        if self.retries is not None and self.retries < 0:
            raise ValueError("retries must be non-negative")
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ValueError("shard_timeout must be positive")
        if self.stop is not None:
            stopping_registry = REGISTRIES["stopping-rules"]
            if self.stop not in stopping_registry:
                raise ValueError(
                    "unknown stopping rule %r (registered: %s)"
                    % (self.stop, ", ".join(stopping_registry.names()))
                )
        known_values = set()
        for values in (
            self.cores,
            self.attackers,
            self.templates,
            self.solvers,
            self.generators,
        ):
            known_values.update(values)
        known_values.update(v for v in self.restrictions if v is not None)
        for target, changes in self.overrides.items():
            if target not in known_values:
                raise ValueError(
                    "override target %r matches no declared axis value" % target
                )
            for field_name in changes:
                if field_name not in _OVERRIDABLE:
                    raise ValueError(
                        "override for %r sets unknown cell field %r (fields: %s)"
                        % (target, field_name, ", ".join(_OVERRIDABLE))
                    )


def filter_cells(
    cells: Iterable[CampaignCell], filters: Mapping[str, str]
) -> List[CampaignCell]:
    """Cells matching every ``axis=value`` filter (values compared as
    strings, so ``budget=500`` works from the command line; ``restriction=-``
    matches the unrestricted template)."""
    selected = []
    for cell in cells:
        for axis, wanted in filters.items():
            value = cell.axis(axis)
            rendered = "-" if value is None else str(value)
            if rendered != str(wanted):
                break
        else:
            selected.append(cell)
    return selected
