"""What one pipeline run produced: :class:`PipelineResult` and its
per-phase :class:`PhaseTimings`."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, List, Optional

from repro.contracts.template import Contract
from repro.evaluation.results import EvaluationDataset
from repro.resilience.quarantine import FailureRecord
from repro.synthesis.synthesizer import SynthesisResult
from repro.trace.tracer import record_shape
from repro.verification.checker import SatisfactionReport

if TYPE_CHECKING:  # pragma: no cover
    from repro.adaptive.loop import AdaptiveResult


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
    #: Executor backend the run configured (``None`` for a default
    #: run), and the per-shard accounting of every evaluation: how many
    #: shards the plan had and how many were resumed from a checkpoint
    #: manifest instead of re-evaluated.
    executor_name: Optional[str] = None
    shards_total: int = 0
    shards_resumed: int = 0
    #: Shards that exhausted their retries and were quarantined (the
    #: dataset is missing their results).
    shards_quarantined: int = 0
    #: Backend the executor fallback chain downgraded to (``None``
    #: when the configured backend survived the whole run).
    executor_downgraded: Optional[str] = None

    @classmethod
    def from_spans(cls, records: Iterable[dict]) -> "PhaseTimings":
        """Project phase timings out of a trace span stream.

        Consumes completed span records (shape ``end``, see
        :func:`~repro.trace.tracer.record_shape`): the ``pipeline``
        span supplies the total, and each ``phase`` span supplies its
        phase timer — the ``evaluate`` span additionally carries the
        cache/executor/sim-extract detail fields.  Every other shape
        passes through untouched, so the whole of a run's trace stream
        (or its in-memory collector) can be fed directly.
        """
        timings = cls()
        for record in records:
            if record_shape(record) != "end":
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
        else:
            details = [
                "sim %.3fs" % self.simulation_seconds,
                "extract %.3fs" % self.extraction_seconds,
            ]
            if self.executor_name is not None:
                details.append("executor %s" % self.executor_name)
            if self.executor_name is not None or self.shards_resumed:
                details.append(
                    "%d shards, %d resumed" % (self.shards_total, self.shards_resumed)
                )
            if self.shards_quarantined:
                details.append("%d quarantined" % self.shards_quarantined)
            if self.executor_downgraded:
                details.append("downgraded to %s" % self.executor_downgraded)
            evaluate_detail = " (%s)" % ", ".join(details)
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
        """The evaluation shards that exhausted retries and were
        quarantined: the dataset is missing their results."""
        return self._quarantined(None)

    def _quarantined(self, phase: Optional[str]) -> List[FailureRecord]:
        """The quarantined shards of ``phase`` (``None``: evaluation)."""
        return [
            record
            for record in self.failures
            if record.kind == "shard" and record.unit.get("phase") == phase
        ]

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
        for phase, label, dropped in (
            (None, "quarantined", "the dataset"),
            ("verify", "verify quarantined", "the verification report"),
        ):
            quarantined = self._quarantined(phase)
            if quarantined:
                lines.append(
                    "%s: %d shard(s) dropped from %s after exhausting retries (%s)"
                    % (
                        label,
                        len(quarantined),
                        dropped,
                        ", ".join(
                            "start_id=%s" % record.unit.get("start_id")
                            for record in quarantined
                        ),
                    )
                )
        lines.append("timings: %s" % self.timings.render())
        return "\n".join(lines)

    def record_run(self, directory: str, budget: int, seed: int) -> None:
        """Append this run's summary to the ``runs.jsonl`` index under
        ``directory`` (see :mod:`repro.metrics.runs`)."""
        from repro.metrics.runs import record_run

        timings = self.timings
        record_run(
            directory,
            kind="pipeline",
            label="core=%s attacker=%s template=%s budget=%d seed=%d"
            % (
                self.core_name,
                self.attacker_name,
                self.template_name,
                budget,
                seed,
            ),
            seconds=timings.total_seconds,
            cases=len(self.dataset),
            phases={
                "setup": timings.setup_seconds,
                "evaluate": timings.evaluation_seconds,
                "synthesize": timings.synthesis_seconds,
                "verify": timings.verification_seconds,
            },
            extra={
                "atoms": self.atom_count,
                "false_positives": self.false_positives,
                "cache_hit": timings.cache_hit,
            },
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "PipelineResult(core=%s, %d cases, %d atoms)" % (
            self.core_name,
            len(self.dataset),
            self.atom_count,
        )
