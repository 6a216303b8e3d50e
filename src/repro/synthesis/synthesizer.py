"""End-to-end contract synthesis (§III-D).

``synthesize`` ties the pieces together: reduce an evaluation dataset
to an ILP instance (optionally under a template restriction), solve
it, and package the optimal contract with its diagnostics.  Every call
solves its own instance: no earlier contract is reused, so the
contract is a function of the dataset alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Optional, Tuple

from repro.contracts.template import Contract, ContractTemplate
from repro.evaluation.results import EvaluationDataset
from repro.metrics.registry import current_metrics
from repro.synthesis.ilp import IlpInstance, build_ilp_instance
from repro.synthesis.solvers import IlpSolver, ScipyMilpSolver, SolverResult
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

    def synthesize(
        self,
        dataset: EvaluationDataset,
        allowed_atom_ids: Optional[Iterable[int]] = None,
    ) -> SynthesisResult:
        """Synthesize the most precise correct contract for ``dataset``.

        ``allowed_atom_ids`` restricts the template (e.g. to the
        IL+RL+ML base families); atom ids refer to ``self.template``.
        """
        start = time.perf_counter()
        instance = self._build(dataset, allowed_atom_ids)
        solver_result = self._solve(instance)
        synthesis = SynthesisResult(
            contract=Contract(self.template, solver_result.selected_atom_ids),
            solver_result=solver_result,
            instance=instance,
            wall_seconds=time.perf_counter() - start,
            false_positive_test_ids=tuple(
                instance.false_positive_test_ids(solver_result.selected_atom_ids)
            ),
        )
        self.count(synthesis)
        return synthesis

    # Profiled (end-only span records, via the process-wide tracer the
    # pipeline installs): the instance build and the solve are the
    # synthesis phase Table III shows dominating at scale, so their
    # per-call durations are worth having in every trace file without
    # begin-record overhead.
    @profile_step("ilp-build")
    def _build(
        self, dataset: EvaluationDataset, allowed_atom_ids: Optional[Iterable[int]]
    ) -> IlpInstance:
        return build_ilp_instance(dataset, allowed_atom_ids)

    @profile_step("ilp-solve")
    def _solve(self, instance: IlpInstance) -> SolverResult:
        return self.solver.solve(instance)

    def count(self, synthesis: SynthesisResult) -> None:
        """Count one synthesis in the run's metrics: a cold solve,
        whether the LP certificate proved it and whether a PDLP
        relaxation fell back to simplex; plus the formulation's size and
        the rows each ILP reduction removed.  :meth:`synthesize` calls
        it for every result it returns."""
        metrics = current_metrics()
        stats = synthesis.solver_result.stats
        metrics.counter("solver.cold_solves").inc()
        for stat, counter in (
            ("lp_certificate", "solver.lp_certificates"),
            ("lp_fallback", "solver.lp_fallbacks"),
        ):
            if stats.get(stat):
                metrics.counter(counter).inc()
        if metrics.enabled:
            for stat, value in stats.items():
                if stat in ("constraints", "variables") or stat.startswith("rows."):
                    metrics.histogram("solver." + stat).observe(value)


def synthesize(
    dataset: EvaluationDataset,
    template: ContractTemplate,
    allowed_atom_ids: Optional[Iterable[int]] = None,
    solver: Optional[IlpSolver] = None,
) -> SynthesisResult:
    """One-shot convenience wrapper around :class:`ContractSynthesizer`."""
    return ContractSynthesizer(template, solver).synthesize(dataset, allowed_atom_ids)
