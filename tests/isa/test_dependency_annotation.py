"""Re-deriving dependency distances from a retirement stream.

:func:`annotate_dependency_distances` rebuilds the ``RAW``/``WAR``/``WAW``
features of records that come from outside the executor (VCD waveforms),
so on executor records it must reproduce what the executor computed
itself, for every window, and re-running it must leave nothing stale.
"""

import dataclasses

import pytest

from repro.contracts.riscv_template import build_riscv_template
from repro.isa.assembler import assemble
from repro.isa.executor import annotate_dependency_distances, execute_program
from repro.isa.state import ArchState
from repro.testgen.generator import TestCaseGenerator

DISTANCES = ("raw_rs1_dist", "raw_rs2_dist", "war_rd_dist", "waw_dist")


def _distances(records):
    return [tuple(getattr(record, name) for name in DISTANCES) for record in records]


def _stripped(records):
    """Copies of ``records`` with every distance cleared."""
    return [
        dataclasses.replace(record, **{name: None for name in DISTANCES})
        for record in records
    ]


@pytest.fixture(scope="module")
def cases():
    generator = TestCaseGenerator(build_riscv_template(), seed=17)
    return list(generator.iter_generate(12))


def _runs(cases, window):
    for case in cases:
        for program in (case.program_a, case.program_b):
            state = case.initial_state.copy()
            yield execute_program(program, state, dependency_window=window)


@pytest.mark.parametrize("window", [1, 2, 3, 4, 6])
def test_reannotation_reproduces_the_executor(cases, window):
    for records in _runs(cases, window):
        rebuilt = _stripped(records)
        annotate_dependency_distances(rebuilt, window=window)
        assert _distances(rebuilt) == _distances(records)


@pytest.mark.parametrize("window", [1, 2, 3])
def test_narrower_reannotation_leaves_no_stale_distance(cases, window):
    for wide, narrow in zip(_runs(cases, 4), _runs(cases, window)):
        annotate_dependency_distances(wide, window=window)
        assert _distances(wide) == _distances(narrow)


def test_default_window_is_the_templates_four():
    program = assemble(
        "addi x1, x0, 1\n"
        "addi x2, x0, 2\naddi x3, x0, 3\naddi x4, x0, 4\naddi x5, x0, 5\n"
        "add x6, x1, x0"
    )
    records = _stripped(execute_program(program))
    annotate_dependency_distances(records)
    assert records[4].raw_rs1_dist is None  # x0 is never a dependency
    assert records[5].raw_rs1_dist is None  # x1 was written 5 back
    records = _stripped(execute_program(program))
    annotate_dependency_distances(records, window=5)
    assert records[5].raw_rs1_dist == 5


def test_x0_is_never_a_dependency():
    program = assemble("addi x0, x0, 1\nadd x0, x0, x0\nadd x1, x0, x0")
    records = _stripped(execute_program(program))
    annotate_dependency_distances(records)
    assert _distances(records) == [(None,) * 4] * 3


def test_reading_and_writing_one_register_is_no_self_dependency():
    program = assemble("addi x1, x1, 1\naddi x1, x1, 1")
    records = _stripped(execute_program(program))
    annotate_dependency_distances(records)
    assert _distances(records) == [
        (None, None, None, None),
        (1, None, 1, 1),
    ]


def _record(source, line, regs=None):
    program = assemble(source)
    state = ArchState(pc=program.base_address)
    for index, value in (regs or {}).items():
        state.write_register(index, value)
    return execute_program(program, state)[line]


@pytest.mark.parametrize(
    "source, line, regs, expected",
    [
        ("addi x1, x0, 1\nbeq x1, x1, skip\naddi x2, x0, 2\nskip: nop", 1, None, True),
        ("addi x1, x0, 1\nbeq x1, x0, skip\naddi x2, x0, 2\nskip: nop", 1, None, False),
        ("jal x1, target\naddi x2, x0, 9\ntarget: nop", 0, None, True),
        ("jalr x0, x5, 0\nnop", 0, {5: 0x1004}, False),
        ("add x3, x1, x2", 0, None, False),
    ],
    ids=["taken-branch", "fall-through-branch", "jal", "jalr-to-next", "alu"],
)
def test_control_flow_change_compares_against_the_next_word(
    source, line, regs, expected
):
    assert _record(source, line, regs).is_control_flow_change is expected


@pytest.mark.parametrize(
    "source, expected",
    [
        ("lw x2, 8(x1)", 0x108),
        ("sw x2, 12(x1)", 0x10C),
        ("add x2, x1, x1", None),
    ],
    ids=["load", "store", "alu"],
)
def test_memory_address_is_the_load_or_store_address(source, expected):
    assert _record(source, 0, {1: 0x100}).memory_address == expected
