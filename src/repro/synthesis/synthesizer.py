"""End-to-end contract synthesis (§III-D).

``synthesize`` ties the pieces together: reduce an evaluation dataset
to an ILP instance (optionally under a template restriction), solve
it, and package the optimal contract with its diagnostics.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Optional, Tuple

from repro.contracts.template import Contract, ContractTemplate
from repro.evaluation.results import EvaluationDataset
from repro.metrics.registry import current_metrics
from repro.synthesis.ilp import IlpInstance, build_ilp_instance
from repro.synthesis.solvers import (
    IlpSolver,
    ScipyMilpSolver,
    SolverResult,
    eliminate_redundant_atoms,
)
from repro.trace.tracer import profile_step


@dataclass
class SynthesisResult:
    """A synthesized contract plus synthesis diagnostics."""

    contract: Contract
    solver_result: SolverResult
    instance: IlpInstance
    wall_seconds: float
    #: Test ids of false positives under the synthesized contract.
    false_positive_test_ids: Tuple[int, ...] = field(default=())

    @property
    def false_positives(self) -> int:
        return self.solver_result.false_positives

    @property
    def atom_count(self) -> int:
        return len(self.contract)

    @property
    def uncoverable_test_ids(self) -> Tuple[int, ...]:
        return self.instance.uncoverable_test_ids

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "SynthesisResult(%d atoms, %d false positives, %.3fs)" % (
            self.atom_count,
            self.false_positives,
            self.wall_seconds,
        )


class ContractSynthesizer:
    """Reusable synthesis front end bound to a template and solver."""

    def __init__(
        self,
        template: ContractTemplate,
        solver: Optional[IlpSolver] = None,
    ):
        self.template = template
        self.solver = solver if solver is not None else ScipyMilpSolver()

    # Profiled (end-only span records, via the process-wide tracer the
    # pipeline installs): the ILP solve is the phase Table III shows
    # dominating at scale, so its per-call durations are worth having
    # in every trace file without begin-record overhead.
    @profile_step("ilp-solve")
    def synthesize(
        self,
        dataset: EvaluationDataset,
        allowed_atom_ids: Optional[Iterable[int]] = None,
        warm_start: Optional[Iterable[int]] = None,
    ) -> SynthesisResult:
        """Synthesize the most precise correct contract for ``dataset``.

        ``allowed_atom_ids`` restricts the template (e.g. to the
        IL+RL+ML base families); atom ids refer to ``self.template``.

        ``warm_start`` is a previously synthesized selection (the
        adaptive loop passes the previous round's contract): when it
        still covers every coverage constraint of the new instance at
        zero false-positive weight it is *provably optimal* (the
        objective is a non-negative FP count), so the solve is skipped
        and the selection is re-canonicalized instead.  Any other warm
        selection is ignored and the backend solves cold.  The shortcut
        needs a contract with zero false positives that survives the
        new cases, which coverage-steered rounds rarely leave: it fired
        in no round of the ``ibex-adaptive-8x250`` benchmark workload.
        """
        start = time.perf_counter()
        instance = build_ilp_instance(dataset, allowed_atom_ids)
        solver_result = None
        if warm_start is not None:
            solver_result = self._try_warm_start(instance, warm_start)
        if solver_result is None:
            solver_result = self.solver.solve(instance)
        synthesis = self._result(instance, solver_result, time.perf_counter() - start)
        self.count(synthesis)
        return synthesis

    def apply_warm_start(
        self, synthesis: SynthesisResult, warm_start: Optional[Iterable[int]]
    ) -> SynthesisResult:
        """``synthesis`` as :meth:`synthesize` would have returned it,
        for the same dataset, had it been given ``warm_start``.

        This lets a caller start a solve before the warm start is known
        and decide afterwards: the adaptive loop solves a round while
        the previous one is still solving.
        """
        if warm_start is None:
            return synthesis
        solver_result = self._try_warm_start(synthesis.instance, warm_start)
        if solver_result is None:
            return synthesis
        return self._result(synthesis.instance, solver_result, synthesis.wall_seconds)

    def count(self, synthesis: SynthesisResult) -> None:
        """Count one synthesis in the run's metrics: a warm start, or a
        cold solve and whether the LP certificate proved it, plus the
        formulation's size and the rows each ILP reduction removed.
        :meth:`synthesize` calls it for every result it returns."""
        metrics = current_metrics()
        stats = synthesis.solver_result.stats
        if stats.get("warm_start"):
            metrics.counter("solver.warm_starts").inc()
        else:
            metrics.counter("solver.cold_solves").inc()
            if stats.get("lp_certificate"):
                metrics.counter("solver.lp_certificates").inc()
        if metrics.enabled:
            for stat, value in stats.items():
                if stat in ("constraints", "variables") or stat.startswith("rows."):
                    metrics.histogram("solver." + stat).observe(value)

    def _result(
        self, instance: IlpInstance, solver_result: SolverResult, seconds: float
    ) -> SynthesisResult:
        return SynthesisResult(
            contract=Contract(self.template, solver_result.selected_atom_ids),
            solver_result=solver_result,
            instance=instance,
            wall_seconds=seconds,
            false_positive_test_ids=tuple(
                instance.false_positive_test_ids(solver_result.selected_atom_ids)
            ),
        )

    def _try_warm_start(
        self, instance: IlpInstance, warm_start: Iterable[int]
    ) -> Optional[SolverResult]:
        """A :class:`SolverResult` for a still-optimal warm selection,
        or ``None`` when a cold solve is needed.

        The warm selection is first intersected with the instance's
        candidate set (new data may have dominance-eliminated an atom);
        it is reused only when the intersection still covers every
        constraint at zero FP weight, which makes it objective-optimal.
        """
        if not instance.cover_sets:
            return None
        selection = frozenset(warm_start) & frozenset(instance.candidate_atom_ids)
        if not selection or not instance.covers_all(selection):
            return None
        if instance.false_positive_weight(selection) != 0:
            return None
        selected = frozenset(eliminate_redundant_atoms(instance, sorted(selection)))
        return SolverResult(
            selected_atom_ids=selected,
            false_positives=0,
            solver_name=self.solver.name,
            optimal=True,
            stats={"warm_start": 1.0},
        )


def synthesize(
    dataset: EvaluationDataset,
    template: ContractTemplate,
    allowed_atom_ids: Optional[Iterable[int]] = None,
    solver: Optional[IlpSolver] = None,
) -> SynthesisResult:
    """One-shot convenience wrapper around :class:`ContractSynthesizer`."""
    return ContractSynthesizer(template, solver).synthesize(dataset, allowed_atom_ids)
