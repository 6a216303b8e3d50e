"""Architectural state: the paper's ``ARCH`` domain.

An architectural state consists of the program counter, the 32 integer
registers, and memory.  ``x0`` is maintained as a hard-wired zero by
:meth:`ArchState.write_register`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.isa.memory import SparseMemory
from repro.isa.registers import REGISTER_COUNT

_MASK32 = 0xFFFFFFFF


class ArchState:
    """Mutable architectural state of an RV32 hart."""

    __slots__ = ("pc", "regs", "memory")

    def __init__(
        self,
        pc: int = 0,
        regs: Optional[Sequence[int]] = None,
        memory: Optional[SparseMemory] = None,
    ):
        self.pc = pc & _MASK32
        if regs is None:
            self.regs: List[int] = [0] * REGISTER_COUNT
        else:
            if len(regs) != REGISTER_COUNT:
                raise ValueError("expected %d registers" % REGISTER_COUNT)
            self.regs = [value & _MASK32 for value in regs]
            self.regs[0] = 0
        self.memory = memory if memory is not None else SparseMemory()

    @classmethod
    def from_masked(cls, pc: int, regs: List[int]) -> "ArchState":
        """A state adopting ``regs`` as-is: the caller guarantees 32
        values already in ``[0, 2**32)`` with ``regs[0] == 0`` (the
        list is not copied or re-masked)."""
        state = cls.__new__(cls)
        state.pc = pc & _MASK32
        state.regs = regs
        state.memory = SparseMemory()
        return state

    def copy(self) -> "ArchState":
        return ArchState(pc=self.pc, regs=list(self.regs), memory=self.memory.copy())

    def read_register(self, index: int) -> int:
        return self.regs[index]

    def write_register(self, index: int, value: int) -> None:
        if index != 0:
            self.regs[index] = value & _MASK32

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ArchState):
            return NotImplemented
        return (
            self.pc == other.pc
            and self.regs == other.regs
            and self.memory == other.memory
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "ArchState(pc=0x%08x)" % self.pc
