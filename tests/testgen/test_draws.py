"""The generator's draws reproduce ``random.Random`` exactly.

``repro.testgen`` draws through ``_below`` (and its inlined fixed-width
forms) instead of ``randrange`` / ``randint`` / ``choice`` /
``shuffle``.  Byte-identical datasets need each draw to return the same
value *and* consume the same words, so every property compares both:
the value, then the next ``getrandbits(64)`` of the two generators.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.contracts.riscv_template import build_riscv_template
from repro.isa.instructions import Instruction, Opcode, trusted_instruction
from repro.testgen.generator import TestCaseGenerator, _below

seeds = st.integers(min_value=0, max_value=2**64)
bounds = st.one_of(
    st.integers(min_value=1, max_value=2**32),
    st.sampled_from([1, 2, 3, 31, 32, 4095, 4096, 0x7F00]),
    st.integers(min_value=0, max_value=32).map(lambda k: 2**k),
)


def _pair(seed):
    return random.Random(seed), random.Random(seed)


def _same_state(reference, ours):
    return reference.getrandbits(64) == ours.getrandbits(64)


@settings(max_examples=200, deadline=None)
@given(seed=seeds, n=bounds)
def test_randrange(seed, n):
    reference, ours = _pair(seed)
    assert reference.randrange(n) == _below(ours.getrandbits, n)
    assert _same_state(reference, ours)


@settings(max_examples=200, deadline=None)
@given(seed=seeds, n=bounds, low=st.integers(min_value=-(2**31), max_value=2**31))
def test_randint_and_offset_randrange(seed, n, low):
    reference, ours = _pair(seed)
    assert reference.randint(low, low + n - 1) == low + _below(ours.getrandbits, n)
    assert reference.randrange(low, low + n) == low + _below(ours.getrandbits, n)
    assert _same_state(reference, ours)


@settings(max_examples=200, deadline=None)
@given(seed=seeds, n=bounds)
def test_choice(seed, n):
    reference, ours = _pair(seed)
    population = range(n)
    assert reference.choice(population) == population[_below(ours.getrandbits, n)]
    assert _same_state(reference, ours)


@settings(max_examples=200, deadline=None)
@given(
    seed=seeds,
    avoid=st.lists(st.integers(min_value=0, max_value=31), max_size=31),
    count=st.integers(min_value=0, max_value=31),
)
def test_scratch_registers_shuffle(seed, avoid, count):
    """``_scratch_registers`` inlines ``shuffle`` of the free registers."""
    reference, ours = _pair(seed)
    pool = [index for index in range(1, 32) if index not in set(avoid)]
    reference.shuffle(pool)
    scratch = TestCaseGenerator._scratch_registers(ours, avoid, count)
    assert scratch == pool[:count]
    assert _same_state(reference, ours)


def test_trusted_instruction_equals_validated():
    trusted = trusted_instruction(Opcode.ADDI, 1, 2, 0, -5)
    validated = Instruction(Opcode.ADDI, rd=1, rs1=2, imm=-5)
    assert trusted == validated
    assert hash(trusted) == hash(validated)
    assert vars(trusted) == vars(validated)


def test_generated_instructions_pass_validation():
    """The generator builds instructions unchecked; every one of them
    must still be one the validating constructor accepts."""
    template = build_riscv_template(zero_value_atoms=True)
    generator = TestCaseGenerator(template, seed=11)
    cases = [
        generator.generate_for_atom(atom, test_id, random.Random(test_id))
        for test_id, atom in enumerate(template.atoms)
    ]
    cases += generator.generate(300)
    for case in cases:
        for program in (case.program_a, case.program_b):
            for i in program.instructions:
                assert Instruction(i.opcode, i.rd, i.rs1, i.rs2, i.imm) == i
