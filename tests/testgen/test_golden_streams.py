"""Golden digests of the generated test-case streams.

A test case is a pure function of ``(seed, test_id, strategy state)``:
every draw comes from the per-test-id ``child_rng`` stream through
CPython's ``getrandbits`` rejection sampling.  These SHA-256 digests pin
that function byte for byte, so a change to how the generator draws or
builds its instructions cannot silently change a dataset (and with it
every cached dataset, manifest and recorded contract).

Each digest covers a canonical form of every case: the test id, the
``(opcode.value, rd, rs1, rs2, imm)`` tuples of both programs, the base
address, the initial pc and registers, and the targeted atom.  If a
change *means* to alter the streams, it re-records these digests (and
bumps the dataset key version) in the same change.
"""

import hashlib
import json
from types import SimpleNamespace

import pytest

from repro.contracts.riscv_template import TEMPLATE_REGISTRY
from repro.testgen import (
    CoverageStrategy,
    MutateStrategy,
    TestCaseGenerator,
)
from repro.testgen.generator import child_rng

#: Test ids at which every atom of every template is generated.
ATOM_TEST_IDS = (0, 1, 4097)

GOLDEN_ATOM_DIGESTS = {
    "riscv-mem": "b876dd888c0efdb13b33e556b2667fde2b9b715028e5f2851c1e6fccd76a66de",
    "riscv-rv32im": "f6b11e313774a0b58ec7f0148e9a247f0a11fb1dade9b0eb19ac5fa9819d2199",
    "riscv-rv32im-zref": (
        "4cfcc0bf6b9165835256aad00a60321a6d587ba7cd5945e36e0875f4f68f0a99"
    ),
}

#: 2,000 ``random`` cases per seed.
GOLDEN_RANDOM_DIGESTS = {
    0: "12123a263d57e0c238d76de8dcdd13ff20719bc9e0419abb752a92179aa797c0",
    17: "a287d8a3882d1495c85a54b5d2d791e086b053a7f3c2cc5c9138c13da16b4db3",
}

GOLDEN_COVERAGE_DIGEST = (
    "f59875966b31f725ac8dc39cd8ca82d9e06442b8f34700c9b492cc298d57eccc"
)

GOLDEN_MUTATE_DIGEST = (
    "17103923f7e75d5673fcd48b508764f01f3f1abb15245316d2aa6eb1d1a9fbae"
)


def _canonical(case) -> list:
    def program(instructions):
        return [[i.opcode.value, i.rd, i.rs1, i.rs2, i.imm] for i in instructions]

    return [
        case.test_id,
        program(case.program_a.instructions),
        program(case.program_b.instructions),
        case.program_a.base_address,
        case.initial_state.pc,
        list(case.initial_state.regs),
        case.targeted_atom_id,
    ]


def _digest(cases) -> str:
    digest = hashlib.sha256()
    for case in cases:
        digest.update(json.dumps(_canonical(case), separators=(",", ":")).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _feedback(cases):
    """Deterministic stand-in evaluation results: every third case is
    distinguishing, and every other case distinguishes its target."""
    return [
        SimpleNamespace(
            test_id=case.test_id,
            attacker_distinguishable=case.test_id % 3 == 0,
            distinguishing_atom_ids=(
                (case.targeted_atom_id,) if case.test_id % 2 == 0 else ()
            ),
        )
        for case in cases
    ]


def atom_stream_digest(template_name: str) -> str:
    template = TEMPLATE_REGISTRY.create(template_name)
    generator = TestCaseGenerator(template, seed=3)
    return _digest(
        generator.generate_for_atom(atom, test_id, child_rng(3, test_id))
        for atom in template.atoms
        for test_id in ATOM_TEST_IDS
    )


def random_stream_digest(seed: int) -> str:
    strategy = TestCaseGenerator(TEMPLATE_REGISTRY.create("riscv-rv32im"), seed=seed)
    return _digest(strategy.iter_generate(2000))


def coverage_stream_digest() -> str:
    template = TEMPLATE_REGISTRY.create("riscv-rv32im")
    strategy = CoverageStrategy(template, seed=5)
    first_round = strategy.generate(500)
    strategy.observe(_feedback(first_round))
    return _digest(strategy.iter_generate(1500, start_id=500))


def mutate_stream_digest() -> str:
    template = TEMPLATE_REGISTRY.create("riscv-rv32im")
    strategy = MutateStrategy(template, seed=6)
    first_round = strategy.generate(300)
    strategy.observe(_feedback(first_round))
    return _digest(strategy.iter_generate(1500, start_id=300))


@pytest.mark.parametrize("template_name", sorted(TEMPLATE_REGISTRY.names()))
def test_every_atom_of_every_template(template_name):
    assert atom_stream_digest(template_name) == GOLDEN_ATOM_DIGESTS[template_name]


@pytest.mark.parametrize("seed", sorted(GOLDEN_RANDOM_DIGESTS))
def test_random_stream(seed):
    assert random_stream_digest(seed) == GOLDEN_RANDOM_DIGESTS[seed]


def test_coverage_stream_after_observe():
    assert coverage_stream_digest() == GOLDEN_COVERAGE_DIGEST


def test_mutate_stream_with_parents():
    assert mutate_stream_digest() == GOLDEN_MUTATE_DIGEST


if __name__ == "__main__":  # re-record: python tests/testgen/test_golden_streams.py
    for name in sorted(TEMPLATE_REGISTRY.names()):
        print("atom", name, atom_stream_digest(name))
    for seed in sorted(GOLDEN_RANDOM_DIGESTS):
        print("random", seed, random_stream_digest(seed))
    print("coverage", coverage_stream_digest())
    print("mutate", mutate_stream_digest())
