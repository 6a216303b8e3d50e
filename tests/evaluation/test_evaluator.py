"""Tests for the test-case evaluator and result datasets."""

import pytest

from repro.attacker.retirement import TotalTimeAttacker
from repro.contracts.riscv_template import build_riscv_template
from repro.evaluation.evaluator import TestCaseEvaluator
from repro.evaluation.results import EvaluationDataset, TestCaseResult
from repro.isa.assembler import assemble
from repro.isa.state import ArchState
from repro.testgen.generator import TestCaseGenerator
from repro.testgen.testcase import TestCase
from repro.uarch.cva6 import CVA6Core
from repro.uarch.ibex import IbexCore


@pytest.fixture(scope="module")
def template():
    return build_riscv_template()


def make_case(source_a, source_b, regs=None, test_id=0, targeted=None):
    program_a = assemble(source_a)
    program_b = assemble(source_b)
    state = ArchState(pc=program_a.base_address)
    for index, value in (regs or {}).items():
        state.write_register(index, value)
    return TestCase(
        test_id=test_id,
        program_a=program_a,
        program_b=program_b,
        initial_state=state,
        targeted_atom_id=targeted,
    )


class TestEvaluator:
    def test_alignment_case_is_attacker_distinguishable_on_ibex(self, template):
        evaluator = TestCaseEvaluator(IbexCore(), template)
        case = make_case(
            "addi x2, x0, 0x100\nlw x1, 0(x2)",
            "addi x2, x0, 0x102\nlw x1, 0(x2)",
        )
        result = evaluator.evaluate(case)
        assert result.attacker_distinguishable
        names = {template.atom(a).name for a in result.distinguishing_atom_ids}
        assert "lw:IS_WORD_ALIGNED" in names

    def test_alignment_case_is_not_distinguishable_on_cva6(self, template):
        evaluator = TestCaseEvaluator(CVA6Core(), template)
        case = make_case(
            "addi x2, x0, 0x100\nlw x1, 0(x2)",
            "addi x2, x0, 0x102\nlw x1, 0(x2)",
        )
        result = evaluator.evaluate(case)
        assert not result.attacker_distinguishable
        # The atoms still distinguish at ISA level.
        assert result.distinguishing_atom_ids

    def test_value_only_case_not_attacker_distinguishable(self, template):
        evaluator = TestCaseEvaluator(IbexCore(), template)
        case = make_case(
            "addi x2, x0, 5\nadd x1, x2, x3",
            "addi x2, x0, 9\nadd x1, x2, x3",
        )
        result = evaluator.evaluate(case)
        assert not result.attacker_distinguishable
        assert result.distinguishing_atom_ids  # REG_RS1/REG_RD etc.

    def test_branch_case_on_both_cores(self, template):
        case = make_case(
            "addi x1, x0, 5\naddi x2, x0, 5\nbeq x1, x2, 4\nnop",
            "addi x1, x0, 5\naddi x2, x0, 6\nbeq x1, x2, 4\nnop",
        )
        for core in (IbexCore(), CVA6Core()):
            result = TestCaseEvaluator(core, template).evaluate(case)
            assert result.attacker_distinguishable

    def test_targeted_atom_propagates(self, template):
        evaluator = TestCaseEvaluator(IbexCore(), template)
        case = make_case("nop", "nop", targeted=42)
        result = evaluator.evaluate(case)
        assert result.targeted_atom_id == 42
        assert not result.attacker_distinguishable
        assert result.distinguishing_atom_ids == frozenset()

    def test_custom_attacker(self, template):
        # Same total time but different retirement profile: the
        # total-time attacker must call this indistinguishable.
        case = make_case(
            "slli x1, x2, 9\nslli x3, x4, 1",
            "slli x1, x2, 1\nslli x3, x4, 9",
        )
        weak = TestCaseEvaluator(IbexCore(), template, attacker=TotalTimeAttacker())
        strong = TestCaseEvaluator(IbexCore(), template)
        assert not weak.evaluate(case).attacker_distinguishable
        assert strong.evaluate(case).attacker_distinguishable

    def test_timers_accumulate(self, template):
        evaluator = TestCaseEvaluator(IbexCore(), template)
        case = make_case("nop", "nop")
        evaluator.evaluate(case)
        evaluator.evaluate(case)
        assert evaluator.simulation_seconds > 0
        assert evaluator.extraction_seconds > 0

    def test_evaluate_many_end_to_end(self, template):
        generator = TestCaseGenerator(template, seed=3)
        evaluator = TestCaseEvaluator(IbexCore(), template)
        dataset = evaluator.evaluate_many(generator.iter_generate(80))
        assert len(dataset) == 80
        assert dataset.core_name == "ibex"
        assert dataset.attacker_name == "retirement-timing"
        # Most atoms target value leaks Ibex does not have, so the
        # distinguishable fraction is small but must be non-trivial.
        assert len(dataset.distinguishable) >= 3
        assert len(dataset.indistinguishable) >= 40


class TestDataset:
    def _dataset(self):
        results = [
            TestCaseResult(0, True, frozenset({1, 2}), targeted_atom_id=1),
            TestCaseResult(1, False, frozenset({2}), targeted_atom_id=2),
            TestCaseResult(2, True, frozenset({3})),
        ]
        return EvaluationDataset(
            results, core_name="ibex", template_name="t", attacker_name="a"
        )

    def test_views(self):
        dataset = self._dataset()
        assert [r.test_id for r in dataset.distinguishable] == [0, 2]
        assert [r.test_id for r in dataset.indistinguishable] == [1]

    def test_prefix_and_slice(self):
        dataset = self._dataset()
        prefix = dataset.prefix(2)
        assert len(prefix) == 2
        assert prefix.core_name == "ibex"
        assert dataset[0].test_id == 0

    def test_json_roundtrip(self):
        dataset = self._dataset()
        restored = EvaluationDataset.from_json(dataset.to_json())
        assert len(restored) == len(dataset)
        for original, copy in zip(dataset, restored):
            assert original == copy
        assert restored.core_name == "ibex"

    def test_save_load(self, tmp_path):
        dataset = self._dataset()
        path = str(tmp_path / "dataset.json")
        dataset.save(path)
        restored = EvaluationDataset.load(path)
        assert len(restored) == 3
        assert restored.attacker_name == "a"

    def test_extend(self):
        dataset = self._dataset()
        dataset.extend([TestCaseResult(3, False, frozenset())])
        assert len(dataset) == 4
