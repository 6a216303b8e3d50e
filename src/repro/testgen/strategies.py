"""Pluggable test-case generation strategies (``GENERATOR_REGISTRY``).

The §IV-B generator shoots a fixed random budget and hopes it
distinguishes every contract atom; the evaluator then computes *exact*
per-case distinguishing sets, which a fixed budget throws away.  A
:class:`GenerationStrategy` closes the loop: it generates test cases
per test id, but may *observe* the evaluation results of earlier
rounds and steer later generation.

Three registered strategies, one class hierarchy:

- ``random`` — :class:`~repro.testgen.generator.TestCaseGenerator`, the
  §IV-B generator itself.  Feedback is ignored; one round of
  ``random`` is byte-identical to the fixed-budget pipeline, and
  directed verification draws its fresh cases from it.
- ``mutate`` — :class:`MutateStrategy`, mutates known-distinguishing
  cases from earlier rounds (opcode swaps within the shared pools of
  :mod:`repro.testgen.opcodes`, immediate/register re-rolls, initial
  register perturbations).  Generates the ``random`` stream until
  feedback provides parents.
- ``coverage`` — :class:`CoverageStrategy`, re-aims the atom-targeting
  weights at atoms with zero or low distinguishing counts so far.

Both feedback strategies subclass ``TestCaseGenerator`` and build each
case with its atom-targeted :meth:`generate_for_atom`.

Determinism contract: every strategy derives a child RNG from
``(seed, test_id)`` and generates **per test id**, so a case depends
only on ``(seed, test_id, state)`` — never on sibling cases or which
worker generated it.  ``state()`` snapshots the feedback state as a
JSON-serializable dict and ``restore()`` reloads it, which is how the
adaptive loop ships strategies to executor workers (by registry name
plus state) and resumes them from a round checkpoint.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from typing import Dict, Iterable, List, Optional

from repro.isa.instructions import Instruction, Opcode, OPCODE_INFO
from repro.isa.program import Program
from repro.isa.state import ArchState
from repro.registry import Registry
from repro.testgen.generator import (
    GenerationStrategy,
    TestCaseGenerator,
    _below,
    child_rng,
)
from repro.testgen.opcodes import SHIFTS_IMM, UPPER, mutation_pool
from repro.testgen.testcase import TestCase

__all__ = [
    "GENERATOR_REGISTRY",
    "CoverageStrategy",
    "GenerationStrategy",
    "MutateStrategy",
    "TestCaseGenerator",
    "child_rng",
]


class CoverageStrategy(TestCaseGenerator):
    """Aims generation at atoms with low distinguishing counts.

    The target atom of each case is drawn with weight
    ``1 / (1 + count)**2`` where ``count`` is how many evaluated test
    cases the atom has distinguished so far — uncovered atoms dominate
    the draw, already-saturated atoms are rarely re-targeted.  With no
    feedback yet the weights are uniform (a weighted variant of the
    random stream, not the identical stream).
    """

    name = "coverage"

    def __init__(self, template, seed=0, config=None):
        super().__init__(template, seed, config)
        self._counts: Dict[int, int] = {}
        self._cumulative: Optional[List[float]] = None

    def generate_case(self, test_id: int) -> TestCase:
        rng = child_rng(self.seed, test_id)
        atom = self._pick_atom(rng)
        return self.generate_for_atom(atom, test_id, rng)

    def _pick_atom(self, rng: random.Random):
        if self._cumulative is None:
            cumulative = []
            total = 0.0
            for atom in self.template.atoms:
                weight = 1.0 / (1.0 + self._counts.get(atom.atom_id, 0)) ** 2
                total += weight
                cumulative.append(total)
            self._cumulative = cumulative
        point = rng.random() * self._cumulative[-1]
        return self.template.atoms[bisect_left(self._cumulative, point)]

    def observe(self, results) -> None:
        for result in results:
            for atom_id in result.distinguishing_atom_ids:
                self._counts[atom_id] = self._counts.get(atom_id, 0) + 1
        self._cumulative = None

    def state(self) -> dict:
        return {
            "counts": {
                str(atom_id): count for atom_id, count in sorted(self._counts.items())
            }
        }

    def restore(self, state: dict) -> None:
        self._counts = {
            int(atom_id): int(count)
            for atom_id, count in state.get("counts", {}).items()
        }
        self._cumulative = None


#: Parents kept by the mutate strategy (most recent win).
MAX_PARENTS = 128

#: Mutation operators, drawn uniformly per case.
_MUTATIONS = ("regs", "opcode", "imm", "register")


class MutateStrategy(TestCaseGenerator):
    """Mutates known-distinguishing cases from earlier rounds.

    A mutation picks a parent case and perturbs it at a *shared*
    position (where both programs carry the same instruction) or in the
    initial register file, so the two programs still differ only in the
    parent's middle section — the mutant probes the same leakage
    neighborhood under different surrounding data.  Opcode swaps stay
    inside the shared same-format pools of :mod:`repro.testgen.opcodes`.
    Until feedback provides parents the strategy generates the random
    stream.
    """

    name = "mutate"

    def __init__(self, template, seed=0, config=None):
        super().__init__(template, seed, config)
        self._parents: List[dict] = []

    def generate_case(self, test_id: int) -> TestCase:
        if not self._parents:
            return super().generate_case(test_id)
        rng = child_rng(self.seed, test_id)
        parent = self._parents[_below(rng.getrandbits, len(self._parents))]
        return self._mutate(parent, test_id, rng)

    # -- mutation ------------------------------------------------------

    def _mutate(self, parent: dict, test_id: int, rng: random.Random) -> TestCase:
        instructions_a = [_instruction_from_list(raw) for raw in parent["a"]]
        instructions_b = [_instruction_from_list(raw) for raw in parent["b"]]
        regs = list(parent["regs"])
        shared = [
            index
            for index in range(min(len(instructions_a), len(instructions_b)))
            if instructions_a[index] == instructions_b[index]
        ]
        getrandbits = rng.getrandbits
        mutation = _MUTATIONS[_below(getrandbits, len(_MUTATIONS))]
        mutated = False
        if mutation != "regs" and shared:
            position = shared[_below(getrandbits, len(shared))]
            replacement = self._mutate_instruction(
                instructions_a[position], mutation, rng
            )
            if replacement is not None:
                instructions_a[position] = replacement
                instructions_b[position] = replacement
                mutated = True
        if not mutated:
            # Initial-state perturbation: always applicable, and the
            # fallback when the drawn operator had no legal site.
            index = 1 + _below(getrandbits, 31)
            regs[index] = (
                0x100 + _below(getrandbits, 0x7F00)
                if rng.random() < self.config.address_like_probability
                else getrandbits(32)
            )
        return TestCase(
            test_id=test_id,
            program_a=Program(instructions_a, parent["base"]),
            program_b=Program(instructions_b, parent["base"]),
            initial_state=ArchState(pc=parent["pc"], regs=regs),
            targeted_atom_id=parent.get("atom"),
        )

    @staticmethod
    def _mutate_instruction(
        instruction: Instruction, mutation: str, rng: random.Random
    ) -> Optional[Instruction]:
        info = OPCODE_INFO[instruction.opcode]
        if mutation == "opcode":
            pool = mutation_pool(instruction.opcode)
            alternatives = [
                opcode for opcode in pool if opcode is not instruction.opcode
            ]
            if not alternatives:
                return None
            return TestCaseGenerator._rebuild(
                instruction, alternatives[_below(rng.getrandbits, len(alternatives))]
            )
        if mutation == "imm":
            # Control-flow offsets are left alone: re-rolling them could
            # jump outside the program.
            if not info.has_imm or info.is_control:
                return None
            if instruction.opcode in SHIFTS_IMM:
                imm = _below(rng.getrandbits, 32)
            elif instruction.opcode in UPPER:
                imm = rng.getrandbits(20)
            else:
                imm = _below(rng.getrandbits, 4096) - 2048
            return Instruction(
                instruction.opcode,
                rd=instruction.rd,
                rs1=instruction.rs1,
                rs2=instruction.rs2,
                imm=imm,
            )
        if mutation == "register":
            fields = [
                name
                for name, applicable in (
                    ("rd", info.has_rd),
                    ("rs1", info.has_rs1 and not info.is_control),
                    ("rs2", info.has_rs2),
                )
                if applicable
            ]
            if not fields:
                return None
            field_name = fields[_below(rng.getrandbits, len(fields))]
            replacement = 1 + _below(rng.getrandbits, 31)
            values = {
                "rd": instruction.rd,
                "rs1": instruction.rs1,
                "rs2": instruction.rs2,
            }
            values[field_name] = replacement
            return Instruction(instruction.opcode, imm=instruction.imm, **values)
        return None

    # -- feedback ------------------------------------------------------

    def observe(self, results) -> None:
        # Regenerate this round's distinguishing cases under the state
        # they were generated with (observe has not mutated it yet),
        # then fold them into the parent corpus in one step.
        fresh = [
            _case_to_dict(self.generate_case(result.test_id))
            for result in results
            if result.attacker_distinguishable
        ]
        self._parents = (self._parents + fresh)[-MAX_PARENTS:]

    def state(self) -> dict:
        return {"parents": list(self._parents)}

    def restore(self, state: dict) -> None:
        self._parents = list(state.get("parents", []))[-MAX_PARENTS:]


# -- test-case (de)serialization for strategy state --------------------


def _instruction_to_list(instruction: Instruction) -> list:
    return [
        instruction.opcode.name,
        instruction.rd,
        instruction.rs1,
        instruction.rs2,
        instruction.imm,
    ]


def _instruction_from_list(raw: Iterable) -> Instruction:
    opcode_name, rd, rs1, rs2, imm = raw
    return Instruction(Opcode[opcode_name], rd=rd, rs1=rs1, rs2=rs2, imm=imm)


def _case_to_dict(case: TestCase) -> dict:
    return {
        "id": case.test_id,
        "a": [_instruction_to_list(i) for i in case.program_a.instructions],
        "b": [_instruction_to_list(i) for i in case.program_b.instructions],
        "base": case.program_a.base_address,
        "pc": case.initial_state.pc,
        "regs": list(case.initial_state.regs),
        "atom": case.targeted_atom_id,
    }


#: All registered generation strategies, keyed by ``name``.
GENERATOR_REGISTRY = Registry("generator", "test-case generation strategies")
GENERATOR_REGISTRY.register(
    TestCaseGenerator.name,
    TestCaseGenerator,
    description="the paper's fixed-budget random generator (feedback ignored)",
)
GENERATOR_REGISTRY.register(
    MutateStrategy.name,
    MutateStrategy,
    description="mutates known-distinguishing cases from earlier rounds",
)
GENERATOR_REGISTRY.register(
    CoverageStrategy.name,
    CoverageStrategy,
    description="targets atoms with zero or low distinguishing counts",
)
