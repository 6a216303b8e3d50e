"""Ibex-like core model: a small 2-stage in-order RV32IM pipeline.

The timing model reproduces the leakage-relevant behaviours of the
lowRISC Ibex core in its RV32IM configuration (DESIGN.md §5):

- **Word-aligned memory interface.**  Loads crossing a 32-bit word
  boundary are split into two bus transactions; stores land in a write
  buffer and retire with flat timing.  This is the paper's headline
  Ibex finding (alignment leakage on loads, Table I).
- **Taken-branch penalty.**  A taken branch flushes the prefetcher and
  pays a fixed penalty *even when the target equals the fall-through
  pc* — the paper's second Ibex finding.
- **Early-exit divider.**  ``DIV``/``DIVU`` latency depends on operand
  magnitudes; the remainder variants use a separate constant-time path
  in this model (documented deviation, DESIGN.md §5).
- **Serial shifter.**  Shift latency grows with the shift amount,
  leaking the immediate (``SLLI``/``SRLI``/``SRAI``) or ``rs2``
  (``SLL``/``SRL``/``SRA``).
- **Multi-cycle multiplier.**  ``MUL`` and ``MULH*`` differ in latency
  (instruction leakage within the multiplication category) but are
  data-independent.
- **Non-forwarded operand ports.**  The shifter, multiplier, and
  quotient-divider operand ports lack the distance-1 forwarding path,
  so a read-after-write dependency at distance 1 into those units
  stalls one cycle (data-dependency leakage).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import List, Tuple

from repro.isa.instructions import Opcode
from repro.isa.executor import ExecRecord
from repro.uarch.components.cache import DirectMappedCache
from repro.uarch.components.divider import ConstantTimeDivider, EarlyExitDivider
from repro.uarch.components.memory_interface import WordAlignedMemoryPort
from repro.uarch.components.multiplier import FixedLatencyMultiplier
from repro.uarch.components.shifter import SerialShifter
from repro.uarch.core import Core

_SHIFT_IMMEDIATE = (Opcode.SLLI, Opcode.SRLI, Opcode.SRAI)
_SHIFT_REGISTER = (Opcode.SLL, Opcode.SRL, Opcode.SRA)
_MULTIPLY = (Opcode.MUL, Opcode.MULH, Opcode.MULHSU, Opcode.MULHU)
_DIVIDE_QUOTIENT = (Opcode.DIV, Opcode.DIVU)
_DIVIDE_REMAINDER = (Opcode.REM, Opcode.REMU)
_LOADS = (Opcode.LB, Opcode.LH, Opcode.LW, Opcode.LBU, Opcode.LHU)
_STORES = (Opcode.SB, Opcode.SH, Opcode.SW)
_BRANCHES = (
    Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE, Opcode.BLTU, Opcode.BGEU,
)


@dataclass
class IbexConfig:
    """Tunable timing parameters of the Ibex-like model."""

    #: Extra cycles paid by a taken branch (prefetch flush + refetch).
    taken_branch_penalty: int = 2
    #: Cycles paid by unconditional jumps on top of the base cycle.
    jump_penalty: int = 1
    #: Serial shifter step width in bits.
    shifter_step: int = 8
    #: Low-product multiplier latency.
    mul_cycles: int = 3
    #: High-product multiplier latency.
    mulh_cycles: int = 4
    #: Constant latency of the remainder path.
    remainder_cycles: int = 20
    #: Cycles per bus transaction for loads.
    load_transaction_cycles: int = 1
    #: Store (write-buffer accept) latency.
    store_cycles: int = 1
    #: Stall when a non-forwarded unit reads a result produced one
    #: instruction earlier.
    hazard_stall_cycles: int = 1
    #: Model an RV32IMC fetch unit: instructions are laid out with
    #: their compressed (16-bit) encodings where one exists, and an
    #: uncompressed instruction that straddles a 32-bit fetch boundary
    #: pays an extra fetch cycle.  Timing then depends on *encoding*
    #: fields (which operands/immediates are compressible) — the
    #: instruction-leakage (IL) channel of RV32IMC cores.
    compressed_fetch: bool = False
    #: Extra cycles for a fetch-boundary-straddling instruction.
    fetch_straddle_penalty: int = 1
    #: Attach a direct-mapped data cache (extension experiments; the
    #: analyzed Ibex configuration has none).  Loads then have
    #: address-dependent latency (memory leakage, ``ML``) and the
    #: final tag array becomes attacker-observable state for the
    #: cache-state attacker.
    dcache: bool = False
    dcache_line_size: int = 16
    dcache_line_count: int = 16
    dcache_hit_cycles: int = 1
    dcache_miss_cycles: int = 6

    shifter: SerialShifter = field(init=False)
    multiplier: FixedLatencyMultiplier = field(init=False)
    divider: EarlyExitDivider = field(init=False)
    remainder_divider: ConstantTimeDivider = field(init=False)
    memory_port: WordAlignedMemoryPort = field(init=False)

    def __post_init__(self) -> None:
        self.shifter = SerialShifter(step=self.shifter_step)
        self.multiplier = FixedLatencyMultiplier(
            cycles=self.mul_cycles, high_cycles=self.mulh_cycles
        )
        self.divider = EarlyExitDivider()
        self.remainder_divider = ConstantTimeDivider(cycles=self.remainder_cycles)
        self.memory_port = WordAlignedMemoryPort(
            cycles_per_transaction=self.load_transaction_cycles,
            store_cycles=self.store_cycles,
        )


@lru_cache(maxsize=4096)
def _straddling_indices_cached(program) -> frozenset:
    """Fetch-layout pass behind :meth:`IbexCore._straddling_instruction_indices`.

    Keyed on the (hashable, immutable) program object.  This pays off
    when the same program is simulated repeatedly — security audits,
    testbench sweeps, attacker comparisons — where the layout pass
    previously re-ran on every ``simulate`` call.  For one-shot
    generated corpora (distinct programs) the tuple hash costs about
    as much as the layout pass it replaces, and the LRU bound keeps
    memory flat.
    """
    from repro.isa.compressed import code_size

    straddling = set()
    offset = 0
    for index, instruction in enumerate(program):
        size = code_size(instruction)
        if size == 4 and offset % 4 == 2:
            straddling.add(index)
        offset += size
    return frozenset(straddling)


class IbexCore(Core):
    """Cycle-accurate timing model of the 2-stage Ibex-like pipeline.

    The pipeline is blocking: one instruction occupies the ID/EX stage
    at a time, so the retirement cycle of instruction *i* is the
    retirement cycle of *i-1* plus *i*'s occupancy (base latency plus
    any operand-port stall).
    """

    name = "ibex"

    #: Opcodes whose operand ports lack distance-1 forwarding.
    NON_FORWARDED_CONSUMERS = frozenset(
        _SHIFT_IMMEDIATE + _SHIFT_REGISTER + _MULTIPLY + _DIVIDE_QUOTIENT
    )

    def __init__(self, config: IbexConfig = None, dependency_window: int = 4):
        super().__init__(dependency_window=dependency_window)
        self.config = config if config is not None else IbexConfig()
        #: The registry name of this configuration.
        self.name = "ibex-dcache" if self.config.dcache else "ibex"
        self._dcache = None
        if self.config.dcache:
            self._dcache = DirectMappedCache(
                line_size=self.config.dcache_line_size,
                line_count=self.config.dcache_line_count,
                hit_cycles=self.config.dcache_hit_cycles,
                miss_cycles=self.config.dcache_miss_cycles,
            )

    def reset(self) -> None:
        if self._dcache is not None:
            self._dcache.reset()

    def _uarch_state(self):
        if self._dcache is None:
            return {}
        return {"dcache_tags": self._dcache.final_state()}

    def _timing(self, records: List[ExecRecord], program) -> Tuple[List[int], int]:
        straddlers = (
            self._straddling_instruction_indices(program)
            if self.config.compressed_fetch
            else frozenset()
        )
        base_address = program.base_address
        config = self.config
        hazard_cycles = config.hazard_stall_cycles
        timing_of = self._TIMING
        straddle_penalty = config.fetch_straddle_penalty
        cycle = 1  # cycle 0: reset; first instruction enters ID/EX at 1
        retire_cycles: List[int] = []
        for record in records:
            non_forwarded, occupancy = timing_of[record.instruction.opcode]
            if non_forwarded and (
                record.raw_rs1_dist == 1 or record.raw_rs2_dist == 1
            ):
                cycle += hazard_cycles
            cycle += 1 if occupancy is None else occupancy(self, record)
            if straddlers and (record.pc - base_address) // 4 in straddlers:
                cycle += straddle_penalty
            retire_cycles.append(cycle)
        return retire_cycles, cycle + 1  # +1: writeback drain

    @staticmethod
    def _straddling_instruction_indices(program) -> frozenset:
        """Indices of uncompressed instructions that straddle a 32-bit
        fetch boundary in the program's RV32IMC layout.

        Cached per program: the fetch layout is a pure function of the
        instruction sequence, and each test-case program is simulated
        at least twice (both executions share program objects across
        the pair's common parts), so recomputing it per ``simulate``
        call wasted a full pass over the program.
        """
        return _straddling_indices_cached(program)

    # Per-opcode occupancy handlers (cycles an instruction occupies
    # the ID/EX stage); the dispatch table below replaces a nine-way
    # tuple-membership chain on the per-retirement hot path.  The
    # hazard-stall check lives inline in ``_timing``.

    def _occupancy_shift_immediate(self, record: ExecRecord) -> int:
        return self.config.shifter.latency(record.instruction.imm)

    def _occupancy_shift_register(self, record: ExecRecord) -> int:
        return self.config.shifter.latency(record.rs2_value)

    def _occupancy_multiply(self, record: ExecRecord) -> int:
        return self.config.multiplier.latency(
            record.instruction.opcode, record.rs1_value, record.rs2_value
        )

    def _occupancy_divide_quotient(self, record: ExecRecord) -> int:
        return self.config.divider.latency(
            record.instruction.opcode, record.rs1_value, record.rs2_value
        )

    def _occupancy_divide_remainder(self, record: ExecRecord) -> int:
        return self.config.remainder_divider.latency(
            record.instruction.opcode, record.rs1_value, record.rs2_value
        )

    def _occupancy_load(self, record: ExecRecord) -> int:
        config = self.config
        width = record.instruction.memory_width
        if self._dcache is not None:
            transactions = config.memory_port.load_transactions(
                record.mem_read_addr, width
            )
            return 1 + sum(
                self._dcache.access((record.mem_read_addr & ~0x3) + 4 * i)
                for i in range(transactions)
            )
        return 1 + config.memory_port.load_latency(record.mem_read_addr, width)

    def _occupancy_store(self, record: ExecRecord) -> int:
        if self._dcache is not None:
            # Write-allocate: stores touch the cache but retire
            # through the write buffer with flat timing.
            self._dcache.access(record.mem_write_addr & ~0x3)
        return 1 + self.config.memory_port.store_latency(
            record.mem_write_addr, record.instruction.memory_width
        )

    def _occupancy_branch(self, record: ExecRecord) -> int:
        # The penalty applies whenever the branch is taken — even if
        # the target is the fall-through pc (paper finding #2).
        if record.branch_taken:
            return 1 + self.config.taken_branch_penalty
        return 1

    def _occupancy_jump(self, record: ExecRecord) -> int:
        return 1 + self.config.jump_penalty

    #: opcode -> occupancy handler; opcodes absent from the table take
    #: the single base cycle.
    _OCCUPANCY = {}
    for _opcode in _SHIFT_IMMEDIATE:
        _OCCUPANCY[_opcode] = _occupancy_shift_immediate
    for _opcode in _SHIFT_REGISTER:
        _OCCUPANCY[_opcode] = _occupancy_shift_register
    for _opcode in _MULTIPLY:
        _OCCUPANCY[_opcode] = _occupancy_multiply
    for _opcode in _DIVIDE_QUOTIENT:
        _OCCUPANCY[_opcode] = _occupancy_divide_quotient
    for _opcode in _DIVIDE_REMAINDER:
        _OCCUPANCY[_opcode] = _occupancy_divide_remainder
    for _opcode in _LOADS:
        _OCCUPANCY[_opcode] = _occupancy_load
    for _opcode in _STORES:
        _OCCUPANCY[_opcode] = _occupancy_store
    for _opcode in _BRANCHES:
        _OCCUPANCY[_opcode] = _occupancy_branch
    for _opcode in (Opcode.JAL, Opcode.JALR):
        _OCCUPANCY[_opcode] = _occupancy_jump

    #: opcode -> (lacks distance-1 forwarding, occupancy handler) — a
    #: single lookup per retirement covers both timing decisions.
    _TIMING = {}
    for _opcode in Opcode:
        _TIMING[_opcode] = (
            _opcode in NON_FORWARDED_CONSUMERS,
            _OCCUPANCY.get(_opcode),
        )
    del _opcode
