"""The test-case evaluator (§III-C, §IV-C, §IV-D).

Both programs of a test case are simulated on the target core;
attacker distinguishability is decided from the attacker's view of the
two executions (for the paper's model: the retirement-cycle
sequences), and the distinguishing atoms are computed from the
architectural traces extracted from the RVFI records — piggybacking on
the same simulation, as the paper does.

**One fast evaluator.**  :meth:`TestCaseEvaluator.evaluate_batch` is
the primary surface.  It picks its engine from what it is given: a
batch of at least :data:`MIN_COLUMNAR_BATCH` test cases, on a core with
a batched timing model (:func:`repro.batchsim.supports_core`) and
under an attacker in :data:`repro.batchsim.BATCH_SAFE_ATTACKERS`, is
decoded into columnar arrays and simulated lock-step
(:mod:`repro.batchsim`); everything else runs the scalar path (two
simulations and compiled extraction per case).  Both engines produce
byte-identical results.  ``use_fastpath=False`` selects the scalar
reference oracle (closure-based extraction) the fast paths are tested
against.

**One orchestration path.**  The toolchain never drives an evaluator
directly: a :class:`~repro.evaluation.backends.ShardEvaluator` holds
it with its generator, and every run — the pipeline's default, each
adaptive round, every executor backend, directed verification —
evaluates through the shard loop of :mod:`repro.evaluation.backends`
(one :meth:`evaluate_batch` call per shard).  :meth:`evaluate` and :meth:`evaluate_many` remain as
the sequential reference the equivalence suites and benchmarks
compare against.

The evaluator keeps wall-clock accumulators for the simulation and
extraction phases; Table III is reproduced from these.
"""

from __future__ import annotations

import time
from itertools import islice
from typing import Iterable, List, Optional, Sequence

from repro import batchsim
from repro.attacker.base import Attacker
from repro.attacker.retirement import RetirementTimingAttacker
from repro.contracts.compiled import compile_template
from repro.contracts.observations import distinguishing_atoms_reference
from repro.contracts.template import ContractTemplate
from repro.evaluation.results import EvaluationDataset, TestCaseResult
from repro.testgen.testcase import TestCase
from repro.uarch.core import Core

#: Batch chunk used by :meth:`evaluate_many`.
DEFAULT_BATCH_SIZE = 256

#: Smallest batch the columnar engine takes.  Smaller batches run the
#: scalar path: the columnar engine's fixed per-call cost loses to it
#: below this width.  Measured on 256 cases split into chunks of 1, 8,
#: 32 and 64 (scalar vs columnar seconds): ibex 0.036 vs 0.391, 0.030
#: vs 0.091, 0.035 vs 0.040, 0.036 vs 0.026; cva6 0.057 vs 0.615,
#: 0.043 vs 0.099, 0.055 vs 0.034, 0.041 vs 0.032.
MIN_COLUMNAR_BATCH = 64


class TestCaseEvaluator:
    """Evaluates test cases on one core against one template."""

    __test__ = False  # not a pytest test class despite the name

    def __init__(
        self,
        core: Core,
        template: ContractTemplate,
        attacker: Optional[Attacker] = None,
        use_fastpath: bool = True,
    ):
        self.core = core
        self.template = template
        self.attacker = attacker if attacker is not None else RetirementTimingAttacker()
        self._compiled = compile_template(template) if use_fastpath else None
        #: Whether the columnar engine can run here: the fast evaluator
        #: is on, the core has a batched timing model, and the attacker
        #: observes what the zero-copy views carry.
        self._batch_engine = (
            self._compiled is not None
            and batchsim.supports_core(core)
            and self.attacker.name in batchsim.BATCH_SAFE_ATTACKERS
        )
        self.simulation_seconds = 0.0
        self.extraction_seconds = 0.0
        self.simulated_test_cases = 0

    @property
    def use_fastpath(self) -> bool:
        """Whether extraction runs through the compiled engine."""
        return self._compiled is not None

    def reset_timers(self) -> None:
        self.simulation_seconds = 0.0
        self.extraction_seconds = 0.0
        self.simulated_test_cases = 0

    # ------------------------------------------------------------------
    # Primary surface: batches

    def evaluate_batch(
        self, test_cases: Sequence[TestCase]
    ) -> List[TestCaseResult]:
        """Evaluate a batch of test cases (the primary entry point).

        Results are returned in input order and are byte-identical per
        test id whichever engine runs.
        """
        if self._batch_engine and len(test_cases) >= MIN_COLUMNAR_BATCH:
            return self._evaluate_columnar(test_cases)
        return [self._evaluate_single(test_case) for test_case in test_cases]

    def _evaluate_columnar(
        self, test_cases: Sequence[TestCase]
    ) -> List[TestCaseResult]:
        """Batched path: one columnar run for all 2N executions."""
        count = len(test_cases)
        start = time.perf_counter()
        programs = [case.program_a for case in test_cases]
        programs += [case.program_b for case in test_cases]
        states = [case.initial_state for case in test_cases] * 2
        simulation = batchsim.run_batch(self.core, programs, states)
        distinguishable = [
            self.attacker.distinguishes(
                simulation.view(index), simulation.view(index + count)
            )
            for index in range(count)
        ]
        after_simulation = time.perf_counter()
        atom_sets = batchsim.batch_distinguishing_atoms(
            self._compiled, simulation.execution, count
        )
        after_extraction = time.perf_counter()

        self.simulation_seconds += after_simulation - start
        self.extraction_seconds += after_extraction - after_simulation
        self.simulated_test_cases += count
        return [
            TestCaseResult(
                test_id=case.test_id,
                attacker_distinguishable=distinguishable[index],
                distinguishing_atom_ids=atom_sets[index],
                targeted_atom_id=case.targeted_atom_id,
            )
            for index, case in enumerate(test_cases)
        ]

    def _evaluate_single(self, test_case: TestCase) -> TestCaseResult:
        """Scalar path: two simulations + per-pair extraction."""
        start = time.perf_counter()
        result_a = self.core.simulate(test_case.program_a, test_case.initial_state)
        result_b = self.core.simulate(test_case.program_b, test_case.initial_state)
        attacker_distinguishable = self.attacker.distinguishes(result_a, result_b)
        after_simulation = time.perf_counter()

        if self._compiled is not None:
            atom_ids = self._compiled.distinguishing_atoms(
                result_a.trace.exec_records,
                result_b.trace.exec_records,
            )
        else:
            atom_ids = distinguishing_atoms_reference(
                self.template,
                result_a.trace.exec_records,
                result_b.trace.exec_records,
            )
        after_extraction = time.perf_counter()

        self.simulation_seconds += after_simulation - start
        self.extraction_seconds += after_extraction - after_simulation
        self.simulated_test_cases += 1
        return TestCaseResult(
            test_id=test_case.test_id,
            attacker_distinguishable=attacker_distinguishable,
            distinguishing_atom_ids=atom_ids,
            targeted_atom_id=test_case.targeted_atom_id,
        )

    # ------------------------------------------------------------------
    # Sequential reference wrappers (tests and benchmarks compare the
    # shard loop against them)

    def evaluate(self, test_case: TestCase) -> TestCaseResult:
        """Evaluate one test case.

        Thin wrapper over :meth:`evaluate_batch`; per-case callers keep
        working, but batch-sized callers should pass whole batches.
        """
        return self.evaluate_batch([test_case])[0]

    def evaluate_many(self, test_cases: Iterable[TestCase]) -> EvaluationDataset:
        """Evaluate a stream of test cases into a dataset.

        Thin wrapper over :meth:`evaluate_batch`: the stream is chunked
        so the batched engine sees full batches.
        """
        results: List[TestCaseResult] = []
        stream = iter(test_cases)
        while batch := list(islice(stream, DEFAULT_BATCH_SIZE)):
            results.extend(self.evaluate_batch(batch))
        return EvaluationDataset(
            results,
            core_name=self.core.name,
            template_name=self.template.name,
            attacker_name=self.attacker.name,
        )
