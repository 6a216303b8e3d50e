"""Tests for ContractTemplate, Contract, and the RISC-V template."""

import pytest

from repro.contracts.atoms import LeakageFamily, make_atom
from repro.contracts.riscv_template import (
    BASE_FAMILIES,
    FULL_FAMILIES,
    RESTRICTION_REGISTRY,
    build_riscv_template,
    cumulative_family_sets,
    restriction_label,
    template_families,
)
from repro.contracts.template import Contract, ContractTemplate
from repro.isa.instructions import InstructionCategory, Opcode, OPCODE_INFO


@pytest.fixture(scope="module")
def template():
    return build_riscv_template()


def test_template_ids_are_positional(template):
    for index, atom in enumerate(template):
        assert atom.atom_id == index
        assert template.atom(index) is atom


def test_template_rejects_bad_numbering():
    atoms = [make_atom(1, Opcode.ADD, "OP")]
    with pytest.raises(ValueError):
        ContractTemplate(atoms)


def test_template_size_matches_design(template):
    # RV32IM instantiation: 892 atoms (DESIGN.md; the paper's RV32IMC
    # instantiation reports 762).
    assert len(template) == 892


def test_no_system_atoms(template):
    for atom in template:
        assert OPCODE_INFO[atom.opcode].category is not InstructionCategory.SYSTEM


def test_atoms_for_opcode_partition(template):
    total = sum(
        len(template.atoms_for_opcode(opcode))
        for opcode in Opcode
    )
    assert total == len(template)


def test_add_atom_sources(template):
    sources = {atom.source for atom in template.atoms_for_opcode(Opcode.ADD)}
    assert "OP" in sources and "REG_RS1" in sources and "WAW_4" in sources
    assert "IMM" not in sources          # R-type has no immediate
    assert "MEM_R_ADDR" not in sources   # not a memory instruction
    assert "BRANCH_TAKEN" not in sources


def test_store_atom_sources(template):
    sources = {atom.source for atom in template.atoms_for_opcode(Opcode.SW)}
    assert "MEM_W_ADDR" in sources and "IS_WORD_ALIGNED" in sources
    assert "RD" not in sources and "REG_RD" not in sources
    assert "RAW_RD_1" not in sources and "WAW_1" not in sources


def test_branch_atom_sources(template):
    sources = {atom.source for atom in template.atoms_for_opcode(Opcode.BEQ)}
    assert "BRANCH_TAKEN" in sources and "NEW_PC" in sources
    assert "RD" not in sources


def test_jump_atom_sources(template):
    jal = {atom.source for atom in template.atoms_for_opcode(Opcode.JAL)}
    assert "NEW_PC" in jal and "BRANCH_TAKEN" not in jal
    jalr = {atom.source for atom in template.atoms_for_opcode(Opcode.JALR)}
    assert "NEW_PC" in jalr and "REG_RS1" in jalr


def test_max_distance_controls_dl_atoms():
    short = build_riscv_template(max_distance=1)
    default = build_riscv_template()
    short_dl = [a for a in short if a.family is LeakageFamily.DL]
    default_dl = [a for a in default if a.family is LeakageFamily.DL]
    assert len(default_dl) == 4 * len(short_dl)


def test_max_distance_zero_removes_dl():
    template = build_riscv_template(max_distance=0)
    assert not [a for a in template if a.family is LeakageFamily.DL]


def test_restricted_opcode_set():
    template = build_riscv_template(opcodes=[Opcode.DIV])
    assert all(atom.opcode is Opcode.DIV for atom in template)
    assert len(template) > 0


def test_ids_by_family(template):
    il_ids = template.ids_by_family([LeakageFamily.IL])
    assert il_ids
    assert all(template.atom(i).family is LeakageFamily.IL for i in il_ids)
    all_ids = template.ids_by_family(FULL_FAMILIES)
    assert len(all_ids) == len(template)


def test_template_families(template):
    assert template_families(template) == list(LeakageFamily)


def test_cumulative_family_sets():
    sets = cumulative_family_sets()
    assert sets[0] == BASE_FAMILIES
    assert sets[-1] == tuple(FULL_FAMILIES)
    assert len(sets) == 4


@pytest.mark.parametrize(
    "label",
    ["IL+RL+ML", "IL+RL+ML+AL", "IL+RL+ML+AL+BL", "IL+RL+ML+AL+BL+DL"],
)
def test_each_cumulative_restriction_is_registered_under_its_label(label):
    families = RESTRICTION_REGISTRY.create(label)
    assert restriction_label(families) == label
    assert tuple(families) in cumulative_family_sets()


def test_named_restrictions_label_their_families():
    assert restriction_label(RESTRICTION_REGISTRY.create("base")) == "IL+RL+ML"
    assert restriction_label(RESTRICTION_REGISTRY.create("full")) == (
        "IL+RL+ML+AL+BL+DL"
    )
    assert restriction_label([]) == ""


def test_contract_membership(template):
    contract = Contract(template, [0, 5, 9])
    assert 5 in contract and 1 not in contract
    assert len(contract) == 3
    assert [atom.atom_id for atom in contract.atoms] == [0, 5, 9]


def test_contract_rejects_bad_ids(template):
    with pytest.raises(ValueError):
        Contract(template, [len(template)])


def test_contract_distinguishes(template):
    contract = Contract(template, [1, 2])
    assert contract.distinguishes(frozenset({2, 7}))
    assert not contract.distinguishes(frozenset({3, 4}))
    assert not contract.distinguishes(frozenset())


def test_contract_equality(template):
    assert Contract(template, [1, 2]) == Contract(template, [2, 1])
    assert Contract(template, [1]) != Contract(template, [2])


def test_contract_summary(template):
    contract = Contract(template, [0])
    text = contract.summary()
    assert "1 atoms" in text and template.atom(0).name in text


def test_contract_by_category_and_family(template):
    div_atom = next(
        atom for atom in template
        if atom.opcode is Opcode.DIV and atom.source == "REG_RS2"
    )
    contract = Contract(template, [div_atom.atom_id])
    grouped = contract.by_category_and_family()
    key = (InstructionCategory.DIVISION, LeakageFamily.RL)
    assert key in grouped and grouped[key][0] is div_atom
