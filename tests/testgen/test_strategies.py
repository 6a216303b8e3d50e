"""Tests for the GENERATOR_REGISTRY strategies.

The determinism contract is the load-bearing property: every strategy
generates per test id from ``(seed, test_id, state)``, which is what
makes executor fan-out, round checkpointing, and the dataset cache key
sound.
"""

import json

import pytest

from repro.contracts.riscv_template import build_riscv_template
from repro.evaluation.evaluator import TestCaseEvaluator
from repro.isa.instructions import Instruction, Opcode
from repro.testgen import (
    GENERATOR_REGISTRY,
    CoverageStrategy,
    MutateStrategy,
    TestCaseGenerator,
)
from repro.testgen.opcodes import MUTATION_POOLS, mutation_pool
from repro.testgen.strategies import child_rng
from repro.uarch.ibex import IbexCore

pytestmark = pytest.mark.adaptive


@pytest.fixture(scope="module")
def template():
    return build_riscv_template()


def _same_case(a, b):
    return (
        a.test_id == b.test_id
        and a.program_a.instructions == b.program_a.instructions
        and a.program_b.instructions == b.program_b.instructions
        and a.program_a.base_address == b.program_a.base_address
        and a.initial_state == b.initial_state
        and a.targeted_atom_id == b.targeted_atom_id
    )


def _evaluate(template, cases):
    evaluator = TestCaseEvaluator(IbexCore(), template)
    return [evaluator.evaluate(case) for case in cases]


class TestRegistry:
    def test_registered_strategies(self):
        assert set(GENERATOR_REGISTRY.names()) >= {"random", "mutate", "coverage"}

    def test_create_forwards_arguments(self, template):
        strategy = GENERATOR_REGISTRY.create("coverage", template, seed=9)
        assert isinstance(strategy, CoverageStrategy)
        assert strategy.seed == 9

    def test_names_match_class_attributes(self, template):
        for name in ("random", "mutate", "coverage"):
            assert GENERATOR_REGISTRY.create(name, template).name == name


class TestRandomStrategy:
    def test_random_is_the_paper_generator(self, template):
        """`random` is the §IV-B generator itself, and the feedback
        strategies build on it, so the adaptive surface cannot drift
        from the paper's fixed-budget corpus."""
        strategy = GENERATOR_REGISTRY.create("random", template, seed=11)
        assert type(strategy) is TestCaseGenerator
        assert GENERATOR_REGISTRY.get("random") is TestCaseGenerator
        assert issubclass(CoverageStrategy, TestCaseGenerator)
        assert issubclass(MutateStrategy, TestCaseGenerator)

    def test_start_id_slices_the_same_stream(self, template):
        strategy = TestCaseGenerator(template, seed=4)
        whole = strategy.generate(20)
        tail = strategy.generate(5, start_id=15)
        assert all(_same_case(a, b) for a, b in zip(whole[15:], tail))

    def test_observe_is_a_no_op(self, template):
        strategy = TestCaseGenerator(template, seed=4)
        before = strategy.generate(5)
        strategy.observe(_evaluate(template, before))
        assert strategy.state() == {}
        after = strategy.generate(5)
        assert all(_same_case(a, b) for a, b in zip(before, after))


class TestCoverageStrategy:
    def test_fresh_state_is_deterministic(self, template):
        a = CoverageStrategy(template, seed=2).generate(10)
        b = CoverageStrategy(template, seed=2).generate(10)
        assert all(_same_case(x, y) for x, y in zip(a, b))

    def test_state_round_trips_through_json(self, template):
        strategy = CoverageStrategy(template, seed=2)
        strategy.observe(_evaluate(template, strategy.generate(30)))
        snapshot = json.loads(json.dumps(strategy.state()))
        restored = CoverageStrategy(template, seed=2)
        restored.restore(snapshot)
        a = strategy.generate(10, start_id=30)
        b = restored.generate(10, start_id=30)
        assert all(_same_case(x, y) for x, y in zip(a, b))

    def test_reaims_at_uncovered_atoms(self, template):
        """With every atom but one saturated, nearly all cases target
        the uncovered one."""
        strategy = CoverageStrategy(template, seed=5)
        uncovered = 7
        strategy.restore(
            {
                "counts": {
                    str(atom.atom_id): 1000
                    for atom in template
                    if atom.atom_id != uncovered
                }
            }
        )
        targeted = [case.targeted_atom_id for case in strategy.generate(50)]
        assert targeted.count(uncovered) > 40

    def test_feedback_changes_the_stream(self, template):
        fresh = CoverageStrategy(template, seed=2)
        steered = CoverageStrategy(template, seed=2)
        steered.observe(_evaluate(template, steered.generate(40)))
        fresh_cases = fresh.generate(30, start_id=40)
        steered_cases = steered.generate(30, start_id=40)
        assert any(
            not _same_case(a, b) for a, b in zip(fresh_cases, steered_cases)
        )


class TestMutateStrategy:
    def test_falls_back_to_random_without_parents(self, template):
        legacy = TestCaseGenerator(template, seed=3).generate(10)
        strategy = MutateStrategy(template, seed=3).generate(10)
        assert all(_same_case(a, b) for a, b in zip(legacy, strategy))

    def test_state_round_trips_through_json(self, template):
        strategy = MutateStrategy(template, seed=3)
        strategy.observe(_evaluate(template, strategy.generate(40)))
        assert strategy.state()["parents"]  # feedback produced parents
        snapshot = json.loads(json.dumps(strategy.state()))
        restored = MutateStrategy(template, seed=3)
        restored.restore(snapshot)
        a = strategy.generate(10, start_id=40)
        b = restored.generate(10, start_id=40)
        assert all(_same_case(x, y) for x, y in zip(a, b))

    def test_mutants_are_well_formed_pairs(self, template):
        strategy = MutateStrategy(template, seed=3)
        strategy.observe(_evaluate(template, strategy.generate(40)))
        for case in strategy.generate(30, start_id=40):
            assert case.program_a.base_address == case.program_b.base_address
            assert len(case.program_a) == len(case.program_b)
            # Valid by construction: Instruction validates its fields.

    def test_opcode_mutation_stays_in_shared_pool(self):
        instruction = Instruction(Opcode.ADD, rd=3, rs1=4, rs2=5)
        rng = child_rng(1, 1)
        for _ in range(20):
            mutated = MutateStrategy._mutate_instruction(instruction, "opcode", rng)
            assert mutated.opcode in mutation_pool(Opcode.ADD)
            assert mutated.opcode is not Opcode.ADD

    def test_parent_corpus_is_capped(self, template):
        from repro.testgen.strategies import MAX_PARENTS

        strategy = MutateStrategy(template, seed=3)
        for start in range(0, 400, 100):
            strategy.observe(
                _evaluate(template, strategy.generate(100, start_id=start))
            )
        assert len(strategy.state()["parents"]) <= MAX_PARENTS


class TestOpcodePools:
    def test_every_pool_member_maps_to_its_pool(self):
        for opcode, pool in MUTATION_POOLS.items():
            assert opcode in pool
            assert mutation_pool(opcode) == pool

    def test_jumps_have_no_pool(self):
        assert mutation_pool(Opcode.JAL) == ()
        assert mutation_pool(Opcode.JALR) == ()
