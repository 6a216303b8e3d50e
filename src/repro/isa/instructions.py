"""Instruction model for the RV32IM instruction set.

Every supported operation is an :class:`Opcode`.  Static per-opcode
metadata (instruction format, operand applicability, category) lives in
:data:`OPCODE_INFO`; the contract template (see
``repro.contracts.riscv_template``) is generated from this metadata, so
it is the single source of truth for "which atoms apply to which
instruction type".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class InstructionFormat(enum.Enum):
    """The six base encoding formats of RV32I."""

    R = "R"
    I = "I"  # noqa: E741 - canonical RISC-V format name
    S = "S"
    B = "B"
    U = "U"
    J = "J"


class InstructionCategory(enum.Enum):
    """Instruction categories used in the paper's contract tables.

    The rows of Tables I and II group opcodes into these categories;
    ``JUMP`` and ``SYSTEM`` exist for completeness (the paper folds
    unconditional jumps into the branch-leakage discussion).
    """

    ARITHMETIC = "arithmetic"
    MULTIPLICATION = "multiplication"
    DIVISION = "division"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    JUMP = "jump"
    SYSTEM = "system"


class Opcode(enum.Enum):
    """All RV32IM operations supported by the toolchain."""

    # RV32I upper-immediate / control transfer
    LUI = "lui"
    AUIPC = "auipc"
    JAL = "jal"
    JALR = "jalr"
    # Conditional branches
    BEQ = "beq"
    BNE = "bne"
    BLT = "blt"
    BGE = "bge"
    BLTU = "bltu"
    BGEU = "bgeu"
    # Loads
    LB = "lb"
    LH = "lh"
    LW = "lw"
    LBU = "lbu"
    LHU = "lhu"
    # Stores
    SB = "sb"
    SH = "sh"
    SW = "sw"
    # Immediate ALU
    ADDI = "addi"
    SLTI = "slti"
    SLTIU = "sltiu"
    XORI = "xori"
    ORI = "ori"
    ANDI = "andi"
    SLLI = "slli"
    SRLI = "srli"
    SRAI = "srai"
    # Register ALU
    ADD = "add"
    SUB = "sub"
    SLL = "sll"
    SLT = "slt"
    SLTU = "sltu"
    XOR = "xor"
    SRL = "srl"
    SRA = "sra"
    OR = "or"
    AND = "and"
    # M extension
    MUL = "mul"
    MULH = "mulh"
    MULHSU = "mulhsu"
    MULHU = "mulhu"
    DIV = "div"
    DIVU = "divu"
    REM = "rem"
    REMU = "remu"
    # System / misc (executed as timing-neutral no-ops by the cores)
    FENCE = "fence"
    ECALL = "ecall"
    EBREAK = "ebreak"

    #: Identity hash in C instead of ``Enum.__hash__``'s Python-level
    #: ``hash(self._name_)``: opcodes key every per-opcode table, and
    #: members are singletons, so identity is equality.  (Neither hash
    #: is stable across processes; no output may depend on it.)
    __hash__ = object.__hash__

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "Opcode.%s" % self.name


@dataclass(frozen=True)
class OpcodeInfo:
    """Static metadata describing one opcode."""

    opcode: Opcode
    fmt: InstructionFormat
    category: InstructionCategory
    has_rd: bool
    has_rs1: bool
    has_rs2: bool
    has_imm: bool

    @property
    def is_memory(self) -> bool:
        return self.category in (InstructionCategory.LOAD, InstructionCategory.STORE)

    @property
    def is_control(self) -> bool:
        return self.category in (InstructionCategory.BRANCH, InstructionCategory.JUMP)


def _info(opcode, fmt, category, rd, rs1, rs2, imm):
    return OpcodeInfo(opcode, fmt, category, rd, rs1, rs2, imm)


_F = InstructionFormat
_C = InstructionCategory

OPCODE_INFO = {
    Opcode.LUI: _info(Opcode.LUI, _F.U, _C.ARITHMETIC, True, False, False, True),
    Opcode.AUIPC: _info(Opcode.AUIPC, _F.U, _C.ARITHMETIC, True, False, False, True),
    Opcode.JAL: _info(Opcode.JAL, _F.J, _C.JUMP, True, False, False, True),
    Opcode.JALR: _info(Opcode.JALR, _F.I, _C.JUMP, True, True, False, True),
    Opcode.BEQ: _info(Opcode.BEQ, _F.B, _C.BRANCH, False, True, True, True),
    Opcode.BNE: _info(Opcode.BNE, _F.B, _C.BRANCH, False, True, True, True),
    Opcode.BLT: _info(Opcode.BLT, _F.B, _C.BRANCH, False, True, True, True),
    Opcode.BGE: _info(Opcode.BGE, _F.B, _C.BRANCH, False, True, True, True),
    Opcode.BLTU: _info(Opcode.BLTU, _F.B, _C.BRANCH, False, True, True, True),
    Opcode.BGEU: _info(Opcode.BGEU, _F.B, _C.BRANCH, False, True, True, True),
    Opcode.LB: _info(Opcode.LB, _F.I, _C.LOAD, True, True, False, True),
    Opcode.LH: _info(Opcode.LH, _F.I, _C.LOAD, True, True, False, True),
    Opcode.LW: _info(Opcode.LW, _F.I, _C.LOAD, True, True, False, True),
    Opcode.LBU: _info(Opcode.LBU, _F.I, _C.LOAD, True, True, False, True),
    Opcode.LHU: _info(Opcode.LHU, _F.I, _C.LOAD, True, True, False, True),
    Opcode.SB: _info(Opcode.SB, _F.S, _C.STORE, False, True, True, True),
    Opcode.SH: _info(Opcode.SH, _F.S, _C.STORE, False, True, True, True),
    Opcode.SW: _info(Opcode.SW, _F.S, _C.STORE, False, True, True, True),
    Opcode.ADDI: _info(Opcode.ADDI, _F.I, _C.ARITHMETIC, True, True, False, True),
    Opcode.SLTI: _info(Opcode.SLTI, _F.I, _C.ARITHMETIC, True, True, False, True),
    Opcode.SLTIU: _info(Opcode.SLTIU, _F.I, _C.ARITHMETIC, True, True, False, True),
    Opcode.XORI: _info(Opcode.XORI, _F.I, _C.ARITHMETIC, True, True, False, True),
    Opcode.ORI: _info(Opcode.ORI, _F.I, _C.ARITHMETIC, True, True, False, True),
    Opcode.ANDI: _info(Opcode.ANDI, _F.I, _C.ARITHMETIC, True, True, False, True),
    Opcode.SLLI: _info(Opcode.SLLI, _F.I, _C.ARITHMETIC, True, True, False, True),
    Opcode.SRLI: _info(Opcode.SRLI, _F.I, _C.ARITHMETIC, True, True, False, True),
    Opcode.SRAI: _info(Opcode.SRAI, _F.I, _C.ARITHMETIC, True, True, False, True),
    Opcode.ADD: _info(Opcode.ADD, _F.R, _C.ARITHMETIC, True, True, True, False),
    Opcode.SUB: _info(Opcode.SUB, _F.R, _C.ARITHMETIC, True, True, True, False),
    Opcode.SLL: _info(Opcode.SLL, _F.R, _C.ARITHMETIC, True, True, True, False),
    Opcode.SLT: _info(Opcode.SLT, _F.R, _C.ARITHMETIC, True, True, True, False),
    Opcode.SLTU: _info(Opcode.SLTU, _F.R, _C.ARITHMETIC, True, True, True, False),
    Opcode.XOR: _info(Opcode.XOR, _F.R, _C.ARITHMETIC, True, True, True, False),
    Opcode.SRL: _info(Opcode.SRL, _F.R, _C.ARITHMETIC, True, True, True, False),
    Opcode.SRA: _info(Opcode.SRA, _F.R, _C.ARITHMETIC, True, True, True, False),
    Opcode.OR: _info(Opcode.OR, _F.R, _C.ARITHMETIC, True, True, True, False),
    Opcode.AND: _info(Opcode.AND, _F.R, _C.ARITHMETIC, True, True, True, False),
    Opcode.MUL: _info(Opcode.MUL, _F.R, _C.MULTIPLICATION, True, True, True, False),
    Opcode.MULH: _info(Opcode.MULH, _F.R, _C.MULTIPLICATION, True, True, True, False),
    Opcode.MULHSU: _info(Opcode.MULHSU, _F.R, _C.MULTIPLICATION, True, True, True, False),
    Opcode.MULHU: _info(Opcode.MULHU, _F.R, _C.MULTIPLICATION, True, True, True, False),
    Opcode.DIV: _info(Opcode.DIV, _F.R, _C.DIVISION, True, True, True, False),
    Opcode.DIVU: _info(Opcode.DIVU, _F.R, _C.DIVISION, True, True, True, False),
    Opcode.REM: _info(Opcode.REM, _F.R, _C.DIVISION, True, True, True, False),
    Opcode.REMU: _info(Opcode.REMU, _F.R, _C.DIVISION, True, True, True, False),
    Opcode.FENCE: _info(Opcode.FENCE, _F.I, _C.SYSTEM, False, False, False, False),
    Opcode.ECALL: _info(Opcode.ECALL, _F.I, _C.SYSTEM, False, False, False, False),
    Opcode.EBREAK: _info(Opcode.EBREAK, _F.I, _C.SYSTEM, False, False, False, False),
}

#: Opcodes whose immediate is a shift amount (0..31) rather than a
#: sign-extended 12-bit value.
SHIFT_IMMEDIATE_OPCODES = frozenset({Opcode.SLLI, Opcode.SRLI, Opcode.SRAI})

#: Load/store element width in bytes.
MEMORY_ACCESS_WIDTH = {
    Opcode.LB: 1, Opcode.LBU: 1, Opcode.LH: 2, Opcode.LHU: 2, Opcode.LW: 4,
    Opcode.SB: 1, Opcode.SH: 2, Opcode.SW: 4,
}

_IMMEDIATE_RANGE = {
    InstructionFormat.I: (-2048, 2047),
    InstructionFormat.S: (-2048, 2047),
    InstructionFormat.B: (-4096, 4094),
    InstructionFormat.U: (0, 0xFFFFF),
    InstructionFormat.J: (-1048576, 1048574),
}


@dataclass(frozen=True)
class Instruction:
    """A single decoded RV32IM instruction.

    Operand fields that do not apply to the opcode must be ``0`` (for
    register indices) or ``0`` (for the immediate); validation enforces
    the applicable ranges so every constructed instruction is encodable.
    """

    opcode: Opcode
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0

    def __post_init__(self) -> None:
        info = OPCODE_INFO[self.opcode]
        if not (0 <= self.rd <= 31 and 0 <= self.rs1 <= 31 and 0 <= self.rs2 <= 31):
            for field_name in ("rd", "rs1", "rs2"):
                value = getattr(self, field_name)
                if not 0 <= value <= 31:
                    raise ValueError(
                        "%s out of range for %s: %r"
                        % (field_name, self.opcode.name, value)
                    )
        if info.has_imm:
            self._validate_immediate(info)

    def _validate_immediate(self, info: OpcodeInfo) -> None:
        if self.opcode in SHIFT_IMMEDIATE_OPCODES:
            low, high = 0, 31
        else:
            low, high = _IMMEDIATE_RANGE[info.fmt]
        if not low <= self.imm <= high:
            raise ValueError(
                "immediate out of range for %s: %r not in [%d, %d]"
                % (self.opcode.name, self.imm, low, high)
            )
        if info.fmt in (InstructionFormat.B, InstructionFormat.J) and self.imm % 2:
            raise ValueError(
                "branch/jump offset must be even for %s: %r" % (self.opcode.name, self.imm)
            )

    @property
    def info(self) -> OpcodeInfo:
        return OPCODE_INFO[self.opcode]

    @property
    def category(self) -> InstructionCategory:
        return OPCODE_INFO[self.opcode].category

    @property
    def memory_width(self) -> Optional[int]:
        """Access width in bytes for loads/stores, else ``None``."""
        return MEMORY_ACCESS_WIDTH.get(self.opcode)

    def reads(self, register: int) -> bool:
        """Whether this instruction reads ``register`` (x0 never counts)."""
        if register == 0:
            return False
        info = OPCODE_INFO[self.opcode]
        return (info.has_rs1 and self.rs1 == register) or (
            info.has_rs2 and self.rs2 == register
        )

    def writes(self, register: int) -> bool:
        """Whether this instruction writes ``register`` (x0 never counts)."""
        if register == 0:
            return False
        info = OPCODE_INFO[self.opcode]
        return info.has_rd and self.rd == register

    @property
    def written_register(self) -> Optional[int]:
        """The architecturally-written register index, if any (not x0)."""
        info = OPCODE_INFO[self.opcode]
        if info.has_rd and self.rd != 0:
            return self.rd
        return None

    def __str__(self) -> str:
        from repro.isa.disassembler import disassemble

        return disassemble(self)


_new_object = object.__new__
_set_field = object.__setattr__


def trusted_instruction(
    opcode: Opcode, rd: int = 0, rs1: int = 0, rs2: int = 0, imm: int = 0
) -> Instruction:
    """An :class:`Instruction` built without the ``__post_init__`` checks.

    Only for fields that are valid by construction (e.g. drawn from
    fixed-width ranges by the test-case generator); equal to, and
    hashing like, ``Instruction(opcode, rd, rs1, rs2, imm)``.  Anything
    parsing outside input (assembler, decoder, JSON state) must use the
    validating constructor.  Fields are set one by one, as the dataclass
    ``__init__`` does, so the instance keeps CPython's compact
    attribute storage (touching ``__dict__`` would double its size).
    """
    instruction = _new_object(Instruction)
    _set_field(instruction, "opcode", opcode)
    _set_field(instruction, "rd", rd)
    _set_field(instruction, "rs1", rs1)
    _set_field(instruction, "rs2", rs2)
    _set_field(instruction, "imm", imm)
    return instruction
