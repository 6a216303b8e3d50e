"""Contract-satisfaction checking by directed random testing.

:func:`check_dataset_satisfaction` checks a contract against an
evaluated dataset.  :func:`check_contract_satisfaction` generates fresh
test cases with the ``random`` strategy, evaluates them as one dataset
through the shard loop every evaluation runs on (on the caller's stack
and failure policy when it passes them), and reports through the
former.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.attacker.base import Attacker
from repro.contracts.template import Contract
from repro.evaluation.backends import (
    EvaluationExecutor,
    MultiprocessExecutor,
    ShardEvaluator,
)
from repro.evaluation.parallel import evaluate_parallel
from repro.evaluation.results import EvaluationDataset
from repro.testgen.generator import TestCaseGenerator
from repro.testgen.testcase import TestCase
from repro.uarch.core import Core


@dataclass
class Violation:
    """One witnessed contract violation.

    The two programs are attacker distinguishable on the core although
    no atom of the contract distinguishes them — the contract
    under-approximates the core's leakage.
    """

    test_case: TestCase
    distinguishing_atom_names: Tuple[str, ...]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "Violation(test %d)" % self.test_case.test_id


@dataclass
class SatisfactionReport:
    """Outcome of a satisfaction check."""

    contract_atoms: int
    test_cases: int
    violations: List[Violation]
    #: Of the attacker-distinguishable cases, how many the contract
    #: covered (diagnostic counterpart of sensitivity).
    covered: int
    attacker_distinguishable: int

    @property
    def satisfied(self) -> bool:
        """No violation found (within the tested budget)."""
        return not self.violations

    def render(self) -> str:
        lines = [
            "contract satisfaction check: %d atoms, %d test cases"
            % (self.contract_atoms, self.test_cases),
            "attacker-distinguishable: %d, covered by contract: %d"
            % (self.attacker_distinguishable, self.covered),
        ]
        if self.satisfied:
            lines.append("SATISFIED (no violations found)")
        else:
            lines.append("VIOLATED: %d witnesses" % len(self.violations))
            for violation in self.violations[:5]:
                lines.append(
                    "  test %d (template atoms that would cover it: %s)"
                    % (
                        violation.test_case.test_id,
                        ", ".join(violation.distinguishing_atom_names[:6]) or "none",
                    )
                )
        return "\n".join(lines)


def check_contract_satisfaction(
    contract: Contract,
    core: Core,
    test_cases: int = 1000,
    seed: int = 0,
    attacker: Optional[Attacker] = None,
    max_violations: int = 25,
    executor: Optional[EvaluationExecutor] = None,
) -> SatisfactionReport:
    """Search for violations of ``contract`` on ``core``.

    Test cases are generated with the atom-targeted ``random`` strategy
    used for synthesis (over the contract's *template*, so leaks outside
    the contract are probed too) and evaluated on the core as one
    dataset, through the shard loop of
    :func:`~repro.evaluation.parallel.evaluate_parallel`.  By default
    the ``multiprocess`` backend runs them on a stack built here over
    ``core``, ``attacker`` and a generator of ``seed``, on a pool scoped
    to this call.  ``executor`` is an in-process backend bound to a
    stack over the same core and template instead, whose generator
    fixes the cases (``seed`` and ``attacker`` then go unused): the
    pipeline passes its verify stack this way, on the run's pool and
    under the run's retry policy.  Every attacker-distinguishable,
    contract-indistinguishable case is a violation.  The report counts
    the evaluated cases (a quarantined shard's are not) and keeps the
    first ``max_violations`` violations in test-id order, their witness
    programs regenerated from their test ids.
    """
    template = contract.template
    if executor is None:
        generator = TestCaseGenerator(template, seed=seed)
        executor = MultiprocessExecutor(
            worker=ShardEvaluator.from_plugins(core, template, generator, attacker)
        )
    stack = executor.worker
    dataset = evaluate_parallel(
        core_name=core.name,
        count=test_cases,
        seed=stack.generator.seed,
        template_name=template.name,
        attacker_name=stack.evaluator.attacker.name,
        executor=executor,
    )
    report = check_dataset_satisfaction(contract, dataset)
    report.violations = report.violations[: max(1, max_violations)]
    for violation in report.violations:
        test_id = violation.test_case.test_id
        violation.test_case = stack.generator.generate_case(test_id)
    return report


def check_dataset_satisfaction(
    contract: Contract, dataset: EvaluationDataset
) -> SatisfactionReport:
    """Satisfaction check against an already-evaluated dataset."""
    template = contract.template
    violations: List[Violation] = []
    covered = 0
    distinguishable = 0
    for result in dataset.distinguishable:
        distinguishable += 1
        if contract.distinguishes(result.distinguishing_atom_ids):
            covered += 1
        else:
            violations.append(
                Violation(
                    test_case=TestCase(
                        test_id=result.test_id,
                        program_a=_EMPTY_PROGRAM,
                        program_b=_EMPTY_PROGRAM,
                        initial_state=_EMPTY_STATE,
                    ),
                    distinguishing_atom_names=tuple(
                        sorted(
                            template.atom(atom_id).name
                            for atom_id in result.distinguishing_atom_ids
                        )
                    ),
                )
            )
    return SatisfactionReport(
        contract_atoms=len(contract),
        test_cases=len(dataset),
        violations=violations,
        covered=covered,
        attacker_distinguishable=distinguishable,
    )


# Placeholder program/state for dataset-only violations (the original
# programs are not stored in evaluation results).
from repro.isa.program import Program as _Program
from repro.isa.state import ArchState as _ArchState

_EMPTY_PROGRAM = _Program([])
_EMPTY_STATE = _ArchState()
