"""The test-case generation interface and the random strategy of §IV-B.

A :class:`GenerationStrategy` builds test cases per test id and may
steer on evaluation feedback.  :class:`TestCaseGenerator` is the
paper's strategy, registered as ``random``; the feedback strategies of
:mod:`repro.testgen.strategies` build on it.

Each test case targets one contract atom and consists of two programs
built from three parts:

1. a shared random prelude (register values come from the shared
   random initial state; the prelude adds dependency context),
2. a middle section containing a random instance of the atom's
   instruction type, *varied between the two programs* so that the
   targeted atom is likely to distinguish them (e.g. a different
   immediate for ``IMM``, a producer writing the source register —
   or not — for ``RAW_RS1_n``),
3. a shared random suffix that reads the target's result to surface
   the leakage and guarantee the middle section completes.

The generator only aims; the evaluator computes the *exact* set of
distinguishing atoms for every test case afterwards, so imperfectly
targeted cases are still perfectly valid.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, List, Optional, Sequence, Tuple

from repro.contracts.atoms import ContractAtom
from repro.contracts.template import ContractTemplate
from repro.isa.instructions import (
    Instruction,
    Opcode,
    OPCODE_INFO,
    trusted_instruction as _instruction,
)
from repro.isa.program import DEFAULT_BASE_ADDRESS, Program
from repro.isa.state import ArchState
from repro.testgen.opcodes import (
    BRANCH_VALUE_PAIRS as _BRANCH_VALUE_PAIRS,
    BRANCHES as _BRANCHES,
    FILLER_POOL,
    LOADS as _LOADS,
    SHIFTS_IMM as _SHIFTS_IMM,
    STORE_FOR_LOAD as _STORE_FOR_LOAD,
    STORES as _STORES,
    UPPER as _UPPER,
    mutation_pool,
)
from repro.testgen.testcase import TestCase

if TYPE_CHECKING:
    from repro.evaluation.results import TestCaseResult

_MASK32 = 0xFFFFFFFF


def _below(getrandbits, n: int) -> int:
    """A uniform draw from ``[0, n)`` for ``n >= 1``.

    Exactly ``random.Random._randbelow_with_getrandbits`` on a bound
    ``getrandbits``: the same words consumed, the same value returned.
    So ``randrange(n)`` is ``_below(rng.getrandbits, n)``,
    ``randint(a, b)`` is ``a + _below(..., b - a + 1)`` and
    ``choice(seq)`` is ``seq[_below(..., len(seq))]`` — without the
    argument checks and call layers of the ``Random`` methods.  The hot
    loops below inline it for fixed bounds as ``(bits, bound)`` pairs.
    """
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


#: Fixed-width draws, as ``_below`` makes them: ``BITS`` bits,
#: rejected at or above the bound.
_REG_BOUND = 31  # a register x1..x31: 1 + draw
_REG_BITS = _REG_BOUND.bit_length()
_SHIFT_BOUND = 32  # a shift amount 0..31
_SHIFT_BITS = _SHIFT_BOUND.bit_length()
_IMM12_BOUND = 4096  # a signed 12-bit immediate: -2048 + draw
_IMM12_BITS = _IMM12_BOUND.bit_length()
_ADDRESS_LOW = 0x100  # an address-like register value 0x100..0x7FFF
_ADDRESS_BOUND = 0x8000 - _ADDRESS_LOW
_ADDRESS_BITS = _ADDRESS_BOUND.bit_length()

#: Immediate kinds of a random instance (see ``_random_instance``).
_NO_IMM, _SHIFT_IMM, _IMM12, _UPPER_IMM, _OFFSET_IMM, _JALR_IMM = range(6)


def _shape(opcode: Opcode) -> Tuple[bool, bool, bool, int]:
    info = OPCODE_INFO[opcode]
    if not info.has_imm:
        kind = _NO_IMM
    elif opcode in _SHIFTS_IMM:
        kind = _SHIFT_IMM
    elif opcode in _BRANCHES or opcode is Opcode.JAL:
        kind = _OFFSET_IMM
    elif opcode is Opcode.JALR:
        kind = _JALR_IMM
    elif opcode in _UPPER:
        kind = _UPPER_IMM
    else:
        kind = _IMM12
    return info.has_rd, info.has_rs1, info.has_rs2, kind


#: Opcode -> ``(has_rd, has_rs1, has_rs2, immediate kind)``.
_SHAPES = {opcode: _shape(opcode) for opcode in Opcode}
#: Opcodes whose ``rd`` is architecturally written.
_WRITES_RD = frozenset(opcode for opcode in Opcode if OPCODE_INFO[opcode].has_rd)

#: ``(opcode,) + shape`` per filler opcode.
_FILLER_SHAPES = tuple((opcode,) + _SHAPES[opcode] for opcode in FILLER_POOL)
_FILLER_BOUND = len(FILLER_POOL)
_FILLER_BITS = _FILLER_BOUND.bit_length()

#: ``Random.shuffle`` of an ``n``-element list as fixed-width draws:
#: ``_SHUFFLE_STEPS[n]`` lists ``(i, bits)`` for ``i = n-1 .. 1``, where
#: the swap partner is drawn below ``i + 1``.
_SHUFFLE_STEPS = [
    tuple((i, (i + 1).bit_length()) for i in reversed(range(1, n)))
    for n in range(32)
]

_MEMORY = _LOADS + _STORES
_NOP = _instruction(Opcode.ADDI)


def child_rng(seed: int, test_id: int) -> random.Random:
    """The per-test-id RNG of every ``GENERATOR_REGISTRY`` strategy.
    A test case is a function of ``(seed, test_id, strategy state)`` —
    this single derivation is what makes shard fan-out, budget prefixes
    and resumed rounds sound."""
    return random.Random((seed << 24) ^ test_id)


@dataclass
class GeneratorConfig:
    """Shape parameters of generated test programs."""

    min_prelude: int = 0
    max_prelude: int = 2
    min_suffix: int = 3
    max_suffix: int = 5
    base_address: int = DEFAULT_BASE_ADDRESS
    #: Probability that a random register value is "address-like"
    #: (small, near-aligned) rather than uniformly random.
    address_like_probability: float = 0.5

    def __post_init__(self) -> None:
        if self.min_prelude > self.max_prelude or self.min_suffix > self.max_suffix:
            raise ValueError("min length exceeds max length")
        if self.min_suffix < 1:
            raise ValueError("suffix must contain at least one instruction")


class GenerationStrategy(ABC):
    """A test-case generator that may learn from evaluation feedback.

    Subclasses implement :meth:`generate_case`; the iteration helpers
    and the feedback/state surface have working defaults (stateless,
    feedback-ignoring: the ``random`` behavior).
    """

    #: Registry name of the strategy.
    name = "abstract"

    def __init__(
        self,
        template: ContractTemplate,
        seed: int = 0,
        config: Optional[GeneratorConfig] = None,
    ):
        self.template = template
        self.seed = seed
        self.config = config if config is not None else GeneratorConfig()

    # -- generation (deterministic per test id) ------------------------

    @abstractmethod
    def generate_case(self, test_id: int) -> TestCase:
        """Build the test case for ``test_id`` under the current state."""

    def iter_generate(self, count: int, start_id: int = 0) -> Iterator[TestCase]:
        for offset in range(count):
            yield self.generate_case(start_id + offset)

    def generate(self, count: int, start_id: int = 0) -> List[TestCase]:
        """Generate ``count`` test cases (deterministic in ``seed``)."""
        return list(self.iter_generate(count, start_id))

    # -- feedback ------------------------------------------------------

    def observe(self, results: Sequence[TestCaseResult]) -> None:
        """Ingest one round of evaluation results (default: ignore)."""

    # -- state snapshot (JSON-serializable) ----------------------------

    def state(self) -> dict:
        """The feedback state as a JSON-serializable dict."""
        return {}

    def restore(self, state: dict) -> None:
        """Reload a :meth:`state` snapshot (default: nothing to load)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "%s(seed=%d)" % (type(self).__name__, self.seed)


class TestCaseGenerator(GenerationStrategy):
    """The ``random`` strategy: atom-targeted test cases from a
    contract template, feedback ignored, so every round extends the
    same stream."""

    __test__ = False  # not a pytest test class despite the name

    name = "random"

    def generate_case(self, test_id: int) -> TestCase:
        """The random case for ``test_id``: a uniformly drawn target
        atom from the test id's ``child_rng`` stream."""
        rng = child_rng(self.seed, test_id)
        atoms = self.template.atoms
        atom = atoms[_below(rng.getrandbits, len(atoms))]
        return self.generate_for_atom(atom, test_id, rng)

    def generate_for_atom(
        self, atom: ContractAtom, test_id: int, rng: random.Random
    ) -> TestCase:
        """Build one test case aimed at ``atom``."""
        config = self.config
        getrandbits = rng.getrandbits
        state = self._random_initial_state(rng)
        prelude_length = config.min_prelude + _below(
            getrandbits, config.max_prelude - config.min_prelude + 1
        )
        suffix_length = config.min_suffix + _below(
            getrandbits, config.max_suffix - config.min_suffix + 1
        )
        target = self._random_instance(atom.opcode, rng, suffix_length)
        part2_a, part2_b = self._vary(atom, target, rng, state, suffix_length)
        prelude = self._random_fillers(rng, prelude_length, ())
        interesting = {
            instruction.rd
            for instruction in part2_a + part2_b
            if instruction.rd and instruction.opcode in _WRITES_RD
        }
        suffix = self._random_fillers(rng, suffix_length, tuple(sorted(interesting)))
        return TestCase(
            test_id=test_id,
            program_a=Program(prelude + part2_a + suffix, config.base_address),
            program_b=Program(prelude + part2_b + suffix, config.base_address),
            initial_state=state,
            targeted_atom_id=atom.atom_id,
        )

    # ------------------------------------------------------------------
    # Random raw material

    def _random_initial_state(self, rng: random.Random) -> ArchState:
        random_, getrandbits = rng.random, rng.getrandbits
        address_like = self.config.address_like_probability
        regs = [0] * 32
        for index in range(1, 32):
            if random_() < address_like:
                value = getrandbits(_ADDRESS_BITS)
                while value >= _ADDRESS_BOUND:
                    value = getrandbits(_ADDRESS_BITS)
                regs[index] = _ADDRESS_LOW + value
            else:
                regs[index] = getrandbits(32)
        return ArchState.from_masked(self.config.base_address, regs)

    def _random_instance(
        self, opcode: Opcode, rng: random.Random, suffix_length: int
    ) -> Instruction:
        """A random, safe instance of ``opcode``.

        Control-flow targets stay inside the program (forward only).
        """
        has_rd, has_rs1, has_rs2, kind = _SHAPES[opcode]
        getrandbits = rng.getrandbits
        rd = 1 + _below(getrandbits, _REG_BOUND) if has_rd else 0
        rs1 = 1 + _below(getrandbits, _REG_BOUND) if has_rs1 else 0
        rs2 = 1 + _below(getrandbits, _REG_BOUND) if has_rs2 else 0
        if kind == _IMM12:
            imm = _below(getrandbits, _IMM12_BOUND) - 2048
        elif kind == _SHIFT_IMM:
            imm = _below(getrandbits, _SHIFT_BOUND)
        elif kind == _OFFSET_IMM:
            imm = 4 * (1 + _below(getrandbits, max(1, suffix_length)))
        elif kind == _JALR_IMM:
            imm = 8  # paired with an AUIPC base; see _vary
        elif kind == _UPPER_IMM:
            imm = getrandbits(20)
        else:
            imm = 0
        return _instruction(opcode, rd, rs1, rs2, imm)

    def _random_fillers(
        self, rng: random.Random, count: int, bias_registers: Sequence[int]
    ) -> List[Instruction]:
        """``count`` random non-control instructions; their sources are
        biased toward ``bias_registers`` to surface leakage of earlier
        results."""
        random_, getrandbits = rng.random, rng.getrandbits
        bias_count = len(bias_registers)
        bias_bits = bias_count.bit_length()

        def source() -> int:
            if bias_count and random_() < 0.5:
                index = getrandbits(bias_bits)
                while index >= bias_count:
                    index = getrandbits(bias_bits)
                return bias_registers[index]
            register = getrandbits(_REG_BITS)
            while register >= _REG_BOUND:
                register = getrandbits(_REG_BITS)
            return 1 + register

        fillers = []
        for _ in range(count):
            index = getrandbits(_FILLER_BITS)
            while index >= _FILLER_BOUND:
                index = getrandbits(_FILLER_BITS)
            opcode, has_rd, has_rs1, has_rs2, kind = _FILLER_SHAPES[index]
            rd = 0
            if has_rd:
                rd = getrandbits(_REG_BITS)
                while rd >= _REG_BOUND:
                    rd = getrandbits(_REG_BITS)
                rd += 1
            rs1 = source() if has_rs1 else 0
            rs2 = source() if has_rs2 else 0
            if kind == _SHIFT_IMM:
                imm = getrandbits(_SHIFT_BITS)
                while imm >= _SHIFT_BOUND:
                    imm = getrandbits(_SHIFT_BITS)
            elif kind == _IMM12:
                imm = getrandbits(_IMM12_BITS)
                while imm >= _IMM12_BOUND:
                    imm = getrandbits(_IMM12_BITS)
                imm -= 2048
            else:
                imm = 0
            fillers.append(_instruction(opcode, rd, rs1, rs2, imm))
        return fillers

    @staticmethod
    def _scratch_registers(
        rng: random.Random, avoid: Sequence[int], count: int
    ) -> List[int]:
        """``count`` registers outside ``avoid``: the head of
        ``rng.shuffle`` over the remaining x1..x31."""
        avoid = set(avoid)
        pool = [index for index in range(1, 32) if index not in avoid]
        getrandbits = rng.getrandbits
        for i, bits in _SHUFFLE_STEPS[len(pool)]:
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:count]

    # ------------------------------------------------------------------
    # Per-source variation strategies

    def _vary(
        self,
        atom: ContractAtom,
        target: Instruction,
        rng: random.Random,
        state: ArchState,
        suffix_length: int,
    ) -> Tuple[List[Instruction], List[Instruction]]:
        """Build the two middle sections (part 2) for ``atom``."""
        source = atom.source
        if source == "OP":
            return self._vary_opcode(target, rng)
        if source in ("RD", "RS1", "RS2"):
            return self._vary_register_index(target, source, rng)
        if source == "IMM":
            return self._vary_immediate(target, rng, suffix_length)
        if source == "REG_RS1":
            return self._vary_register_value(target, target.rs1, rng)
        if source == "REG_RS2":
            return self._vary_register_value(target, target.rs2, rng)
        if source == "IS_ZERO_RS1":
            return self._vary_zero_value(target, target.rs1, rng)
        if source == "IS_ZERO_RS2":
            return self._vary_zero_value(target, target.rs2, rng)
        if source in ("REG_RD", "MEM_R_DATA"):
            return self._vary_result_value(target, rng)
        if source == "MEM_W_DATA":
            return self._vary_register_value(target, target.rs2, rng)
        if source in ("MEM_R_ADDR", "MEM_W_ADDR"):
            return self._vary_address(target, rng, alignment_delta=0)
        if source == "IS_WORD_ALIGNED":
            return self._vary_address(
                target, rng, alignment_delta=(1, 2, 3)[_below(rng.getrandbits, 3)]
            )
        if source == "IS_HALF_ALIGNED":
            return self._vary_address(target, rng, alignment_delta=3)
        if source == "BRANCH_TAKEN":
            return self._vary_branch_outcome(target, rng)
        if source == "NEW_PC":
            return self._vary_new_pc(target, rng, suffix_length)
        prefix = source.rpartition("_")[0]
        if prefix in ("RAW_RS1", "RAW_RS2", "RAW_RD", "WAW"):
            distance = int(source.rpartition("_")[2])
            return self._vary_dependency(target, prefix, distance, rng)
        raise ValueError("no variation strategy for source %r" % (source,))

    def _finalize_target(self, target: Instruction, rng: random.Random):
        """Wrap targets that need setup (JALR needs an in-program base)."""
        if target.opcode is Opcode.JALR:
            base = self._scratch_registers(rng, (target.rd, 0), 1)[0]
            setup = _instruction(Opcode.AUIPC, rd=base, imm=0)
            target = _instruction(Opcode.JALR, rd=target.rd, rs1=base, imm=target.imm)
            return [setup], target
        return [], target

    def _vary_opcode(self, target: Instruction, rng: random.Random):
        pool = mutation_pool(target.opcode)
        alternatives = [opcode for opcode in pool if opcode is not target.opcode]
        setup, target = self._finalize_target(target, rng)
        if not alternatives:
            # JAL/JALR have no same-format sibling: swap in an
            # upper-immediate instruction with a compatible rd.
            mutated = _instruction(Opcode.AUIPC, rd=max(target.rd, 1), imm=1)
            return setup + [target], setup + [mutated]
        alternative = alternatives[_below(rng.getrandbits, len(alternatives))]
        mutated = self._rebuild(target, alternative)
        return setup + [target], setup + [mutated]

    @staticmethod
    def _rebuild(target: Instruction, opcode: Opcode) -> Instruction:
        """Re-type ``target`` as ``opcode``, clamping the immediate."""
        has_rd, has_rs1, has_rs2, kind = _SHAPES[opcode]
        imm = target.imm
        if kind == _SHIFT_IMM:
            imm &= 31
        return _instruction(
            opcode,
            rd=target.rd if has_rd else 0,
            rs1=target.rs1 if has_rs1 else 0,
            rs2=target.rs2 if has_rs2 else 0,
            imm=imm if kind != _NO_IMM else 0,
        )

    def _vary_register_index(self, target: Instruction, field_name: str, rng):
        setup, target = self._finalize_target(target, rng)
        current = getattr(target, field_name.lower())
        if field_name == "RS1" and target.opcode is Opcode.JALR:
            # Re-pointing JALR's base register would jump out of the
            # program; vary the link register instead of the base.
            field_name, current = "RD", target.rd
        replacement = current
        while replacement == current:
            replacement = 1 + _below(rng.getrandbits, _REG_BOUND)
        mutated = _instruction(
            target.opcode,
            rd=replacement if field_name == "RD" else target.rd,
            rs1=replacement if field_name == "RS1" else target.rs1,
            rs2=replacement if field_name == "RS2" else target.rs2,
            imm=target.imm,
        )
        return setup + [target], setup + [mutated]

    def _vary_immediate(self, target: Instruction, rng, suffix_length: int):
        setup, target = self._finalize_target(target, rng)
        opcode = target.opcode
        kind = _SHAPES[opcode][3]
        if kind == _SHIFT_IMM:
            other = target.imm
            while other == target.imm:
                other = _below(rng.getrandbits, _SHIFT_BOUND)
        elif kind == _OFFSET_IMM:
            choices = [4 * k for k in range(1, max(2, suffix_length + 1))]
            choices = [c for c in choices if c != target.imm]
            other = choices[_below(rng.getrandbits, len(choices))]
        elif kind == _JALR_IMM:
            other = target.imm + 4 if target.imm <= 8 else target.imm - 4
        elif kind == _UPPER_IMM:
            other = target.imm
            while other == target.imm:
                other = rng.getrandbits(20)
        else:
            other = target.imm
            while other == target.imm:
                other = _below(rng.getrandbits, _IMM12_BOUND) - 2048
        mutated = _instruction(
            opcode, rd=target.rd, rs1=target.rs1, rs2=target.rs2, imm=other
        )
        return setup + [target], setup + [mutated]

    def _loader(self, register: int, value: int, rng) -> List[Instruction]:
        """Instructions setting ``register`` to ``value`` (or to a
        12-bit fragment of it when a single ADDI suffices)."""
        if -2048 <= value <= 2047:
            return [_instruction(Opcode.ADDI, rd=register, rs1=0, imm=value)]
        upper = (value >> 12) & 0xFFFFF
        lower = value & 0xFFF
        if lower >= 0x800:
            upper = (upper + 1) & 0xFFFFF
            lower -= 0x1000
        sequence = [_instruction(Opcode.LUI, rd=register, imm=upper)]
        if lower:
            sequence.append(
                _instruction(Opcode.ADDI, rd=register, rs1=register, imm=lower)
            )
        return sequence

    def _vary_register_value(self, target: Instruction, register: int, rng):
        setup, target = self._finalize_target(target, rng)
        if register == 0:
            # x0 cannot vary; fall back to an index mutation.
            return self._vary_register_index(target, "RD", rng)
        if (
            target.opcode in _MEMORY
            and register == target.rs1
            and rng.random() < 0.5
        ):
            # Vary the base register but compensate in the immediate so
            # the *effective address* stays equal: separates REG_RS1
            # from MEM_R_ADDR leakage (without such cases the two atoms
            # are observationally identical on every test case).
            compensated = self._vary_base_compensated(target, rng, setup)
            if compensated is not None:
                return compensated
        value_a = self._random_value(rng)
        value_b = value_a
        while value_b == value_a:
            value_b = self._random_value(rng)
        part_a = self._loader(register, value_a, rng) + setup + [target]
        part_b = self._loader(register, value_b, rng) + setup + [target]
        return self._pad_to_equal_length(part_a, part_b)

    @staticmethod
    def _random_value(rng) -> int:
        """A full-width or a small (12-bit) register value, evenly."""
        if rng.random() < 0.5:
            return rng.getrandbits(32)
        return _below(rng.getrandbits, 4096)

    def _vary_base_compensated(self, target: Instruction, rng, setup):
        """Two programs accessing the *same* address through different
        base-register values (immediate compensates the delta)."""
        delta = 4 * (1 + _below(rng.getrandbits, 64))
        if target.imm - delta >= -2048:
            imm_b = target.imm - delta
        elif target.imm + delta <= 2047:
            imm_b, delta = target.imm + delta, -delta
        else:
            return None
        address = 4 * (0x40 + _below(rng.getrandbits, 0x3C0))
        value_a = (address - target.imm) & _MASK32
        value_b = (address - imm_b) & _MASK32
        mutated = _instruction(
            target.opcode,
            rd=target.rd,
            rs1=target.rs1,
            rs2=target.rs2,
            imm=imm_b,
        )
        part_a = self._loader(target.rs1, value_a, rng) + setup + [target]
        part_b = self._loader(target.rs1, value_b, rng) + setup + [mutated]
        return self._pad_to_equal_length(part_a, part_b)

    def _vary_zero_value(self, target: Instruction, register: int, rng):
        """Zero vs non-zero operand value (IS_ZERO_RS* refinement)."""
        setup, target = self._finalize_target(target, rng)
        if register == 0:
            return self._vary_register_index(target, "RD", rng)
        nonzero = 1 + _below(rng.getrandbits, 4095)
        part_a = self._loader(register, 0, rng) + setup + [target]
        part_b = self._loader(register, nonzero, rng) + setup + [target]
        return self._pad_to_equal_length(part_a, part_b)

    def _vary_result_value(self, target: Instruction, rng):
        """Vary the target's *result* (REG_RD / MEM_R_DATA)."""
        opcode = target.opcode
        if opcode in _LOADS:
            # Store different data to the loaded address beforehand.
            scratch = self._scratch_registers(rng, (target.rd, target.rs1), 1)[0]
            store_opcode = _STORE_FOR_LOAD[opcode]
            value_a, value_b = rng.getrandbits(8), rng.getrandbits(8)
            while value_b == value_a:
                value_b = rng.getrandbits(8)
            store = _instruction(
                store_opcode, rs1=target.rs1, rs2=scratch, imm=target.imm
            )
            part_a = self._loader(scratch, value_a, rng) + [store, target]
            part_b = self._loader(scratch, value_b, rng) + [store, target]
            return self._pad_to_equal_length(part_a, part_b)
        _has_rd, has_rs1, _has_rs2, kind = _SHAPES[opcode]
        if has_rs1 and opcode is not Opcode.JALR:
            return self._vary_register_value(target, target.rs1, rng)
        if kind != _NO_IMM:
            return self._vary_immediate(target, rng, suffix_length=2)
        return self._vary_register_index(target, "RD", rng)

    def _vary_address(self, target: Instruction, rng, alignment_delta: int):
        """Vary a memory access's address.

        ``alignment_delta == 0`` keeps the alignment equal (pure
        address variation); otherwise the second program's address is
        offset by ``alignment_delta`` bytes.

        Pure address variations on loads are prefixed with a *warming*
        access to the first address: on cores with address-indexed
        state (caches), the first program then reuses warm state while
        the second does not — the reuse pattern that makes address
        leakage observable at all (a cold cache treats every single
        access alike).
        """
        base = 4 * (0x40 + _below(rng.getrandbits, 0x3C0))
        if alignment_delta == 0:
            address_a, address_b = base, base + 4 * (1 + _below(rng.getrandbits, 64))
        else:
            address_a, address_b = base, base + alignment_delta
        register = target.rs1
        warm: List[Instruction] = []
        if alignment_delta == 0 and target.opcode in _LOADS:
            warm_base, warm_rd = self._scratch_registers(
                rng, (register, target.rd, target.rs2), 2
            )
            warm = self._loader(warm_base, address_a & ~0x3, rng) + [
                _instruction(Opcode.LW, rd=warm_rd, rs1=warm_base, imm=0)
            ]
        part_a = self._loader(register, (address_a - target.imm) & _MASK32, rng)
        part_b = self._loader(register, (address_b - target.imm) & _MASK32, rng)
        part_a, part_b = self._pad_to_equal_length(
            warm + part_a + [target], warm + part_b + [target]
        )
        return part_a, part_b

    def _vary_branch_outcome(self, target: Instruction, rng):
        true_pair, false_pair = _BRANCH_VALUE_PAIRS[target.opcode]
        if target.rs1 == target.rs2:
            # Equal registers cannot take different values; re-point rs2.
            rs2 = self._scratch_registers(rng, (target.rs1,), 1)[0]
            target = _instruction(
                target.opcode, rs1=target.rs1, rs2=rs2, imm=target.imm
            )
        taken_first = rng.random() < 0.5
        pair_a = true_pair if taken_first else false_pair
        pair_b = false_pair if taken_first else true_pair
        part_a = (
            self._loader(target.rs1, pair_a[0], rng)
            + self._loader(target.rs2, pair_a[1], rng)
            + [target]
        )
        part_b = (
            self._loader(target.rs1, pair_b[0], rng)
            + self._loader(target.rs2, pair_b[1], rng)
            + [target]
        )
        return self._pad_to_equal_length(part_a, part_b)

    def _vary_new_pc(self, target: Instruction, rng, suffix_length: int):
        opcode = target.opcode
        if opcode in _BRANCHES:
            # Make the branch taken in both programs, vary the target.
            true_pair, _false = _BRANCH_VALUE_PAIRS[opcode]
            if target.rs1 == target.rs2:
                rs2 = self._scratch_registers(rng, (target.rs1,), 1)[0]
                target = _instruction(opcode, rs1=target.rs1, rs2=rs2, imm=target.imm)
            loaders = self._loader(target.rs1, true_pair[0], rng) + self._loader(
                target.rs2, true_pair[1], rng
            )
            offsets = [4 * k for k in range(1, max(3, suffix_length + 1))]
            offset_a = offsets[_below(rng.getrandbits, len(offsets))]
            offset_b = offset_a
            while offset_b == offset_a:
                offset_b = offsets[_below(rng.getrandbits, len(offsets))]
            taken_a = _instruction(opcode, rs1=target.rs1, rs2=target.rs2, imm=offset_a)
            taken_b = _instruction(opcode, rs1=target.rs1, rs2=target.rs2, imm=offset_b)
            return loaders + [taken_a], loaders + [taken_b]
        # JAL / JALR: vary the jump offset.
        setup, target = self._finalize_target(target, rng)
        return self._vary_immediate(target, rng, suffix_length)

    _NEUTRAL_FILLER_BASE = 20

    def _vary_dependency(self, target: Instruction, prefix: str, distance: int, rng):
        """Create / omit a register dependency at exactly ``distance``.

        Both variants leave the architectural state unchanged (the
        producer is a self-move), so ideally *only* dependency atoms
        and the producer's encoding atoms distinguish the programs.
        """
        if prefix == "RAW_RS1":
            register = target.rs1
        elif prefix == "RAW_RS2":
            register = target.rs2
        else:
            register = target.rd
        scratch_pool = self._scratch_registers(
            rng, (register, target.rd, target.rs1, target.rs2), distance + 1
        )
        scratch = scratch_pool[0]
        if register == 0:
            register = scratch  # degenerate; still a valid random case
        if prefix == "RAW_RD":
            # WAR: the producer *reads* the target's destination.
            producer_a = _instruction(Opcode.AND, rd=scratch, rs1=register, rs2=0)
            producer_b = _instruction(Opcode.AND, rd=scratch, rs1=scratch, rs2=0)
        else:
            # RAW/WAW: the producer *writes* the relevant register
            # with its own value (architecturally a no-op).
            producer_a = _instruction(Opcode.ADD, rd=register, rs1=register, rs2=0)
            producer_b = _instruction(Opcode.ADD, rd=scratch, rs1=scratch, rs2=0)
        fillers = [
            _instruction(Opcode.ADD, rd=reg, rs1=reg, rs2=0)
            for reg in scratch_pool[1:distance]
        ]
        part_a = [producer_a] + fillers + [target]
        part_b = [producer_b] + fillers + [target]
        return part_a, part_b

    @staticmethod
    def _pad_to_equal_length(part_a, part_b):
        """Pad the shorter part with architectural no-ops so both
        programs have identical instruction counts."""
        while len(part_a) < len(part_b):
            part_a = [_NOP] + part_a
        while len(part_b) < len(part_a):
            part_b = [_NOP] + part_b
        return part_a, part_b
