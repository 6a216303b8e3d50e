"""Equivalence: compiled columnar fast path vs. reference semantics.

The compiled engine (`repro.contracts.compiled`) must be
observationally indistinguishable from the closure-per-atom reference
implementation for every input — including control-flow-divergent and
unequal-length traces.  These tests sweep random seeds, both cores,
and templates with and without restriction, and assert byte-identical
``EvaluationDataset`` output between the fast-path and reference
evaluators.
"""

import random

import pytest

from repro.contracts.compiled import _slot_of_source, compile_template
from repro.contracts.observations import (
    _observation_map,
    contract_observation_trace,
    contract_observation_trace_reference,
    distinguishing_atoms,
    distinguishing_atoms_reference,
)
from repro.contracts.riscv_template import (
    BASE_FAMILIES,
    build_riscv_template,
)
from repro.contracts.template import Contract
from repro.evaluation import evaluator as evaluator_module
from repro.evaluation.evaluator import MIN_COLUMNAR_BATCH, TestCaseEvaluator
from repro.evaluation.parallel import evaluate_parallel
from repro.evaluation.results import EvaluationDataset
from repro.isa.assembler import assemble
from repro.isa.executor import execute_program
from repro.testgen.generator import TestCaseGenerator
from repro.uarch.cva6 import CVA6Core
from repro.uarch.ibex import IbexCore

CORES = {"ibex": IbexCore, "cva6": CVA6Core}


@pytest.fixture(scope="module")
def template():
    return build_riscv_template()


@pytest.fixture(scope="module")
def refined_template():
    return build_riscv_template(zero_value_atoms=True)


def _record_pairs(template, core, seed, count):
    """Simulated record pairs for ``count`` generated test cases."""
    generator = TestCaseGenerator(template, seed=seed)
    pairs = []
    for case in generator.iter_generate(count):
        result_a = core.simulate(case.program_a, case.initial_state)
        result_b = core.simulate(case.program_b, case.initial_state)
        pairs.append((result_a.trace.exec_records, result_b.trace.exec_records))
    return pairs


@pytest.mark.parametrize("core_name", sorted(CORES))
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_distinguishing_atoms_matches_reference(template, core_name, seed):
    core = CORES[core_name]()
    for records_a, records_b in _record_pairs(template, core, seed, 40):
        fast = distinguishing_atoms(template, records_a, records_b)
        reference = distinguishing_atoms_reference(template, records_a, records_b)
        assert fast == reference


@pytest.mark.parametrize("seed", [3, 11])
def test_refined_template_matches_reference(refined_template, seed):
    core = IbexCore()
    for records_a, records_b in _record_pairs(refined_template, core, seed, 25):
        fast = distinguishing_atoms(refined_template, records_a, records_b)
        reference = distinguishing_atoms_reference(
            refined_template, records_a, records_b
        )
        assert fast == reference


def test_atom_traces_match_observation_map(template):
    compiled = compile_template(template)
    core = IbexCore()
    for records_a, records_b in _record_pairs(template, core, 5, 10):
        for records in (records_a, records_b):
            assert compiled.atom_traces(records) == _observation_map(
                template, records
            )


def _divergent_record_pairs(template):
    """Hand-built control-flow-divergent and unequal-length traces."""
    taken = assemble(
        """
        addi x1, x0, 5
        addi x2, x0, 5
        beq  x1, x2, 8
        mul  x3, x1, x2
        add  x4, x1, x2
        """
    )
    not_taken = assemble(
        """
        addi x1, x0, 5
        addi x2, x0, 6
        beq  x1, x2, 8
        mul  x3, x1, x2
        add  x4, x1, x2
        """
    )
    # A jump past the end of the program truncates the trace entirely.
    early_exit = assemble(
        """
        addi x1, x0, 5
        jal  x5, 12
        addi x2, x0, 6
        add  x4, x1, x1
        """
    )
    straight = assemble(
        """
        addi x1, x0, 5
        addi x2, x0, 6
        addi x3, x0, 7
        add  x4, x1, x1
        """
    )
    runs = {
        name: execute_program(program)
        for name, program in {
            "taken": taken,
            "not_taken": not_taken,
            "early_exit": early_exit,
            "straight": straight,
        }.items()
    }
    assert len(runs["taken"]) != len(runs["not_taken"])
    assert len(runs["early_exit"]) != len(runs["straight"])
    return [
        (runs["taken"], runs["not_taken"]),
        (runs["early_exit"], runs["straight"]),
        (runs["taken"], runs["straight"]),
        (runs["early_exit"], runs["taken"]),
    ]


def test_control_flow_divergence_matches_reference(template):
    for records_a, records_b in _divergent_record_pairs(template):
        fast = distinguishing_atoms(template, records_a, records_b)
        reference = distinguishing_atoms_reference(template, records_a, records_b)
        assert fast == reference
        # Symmetry holds on the fast path too.
        assert fast == distinguishing_atoms(template, records_b, records_a)


def test_empty_and_identical_traces(template):
    records = execute_program(assemble("addi x1, x0, 1"))
    assert distinguishing_atoms(template, [], []) == frozenset()
    assert distinguishing_atoms(template, records, records) == frozenset()
    assert distinguishing_atoms(template, records, []) == \
        distinguishing_atoms_reference(template, records, [])


@pytest.mark.parametrize("restricted", [False, True])
def test_contract_observation_trace_matches_reference(template, restricted):
    atom_ids = (
        template.restrict(BASE_FAMILIES)
        if restricted
        else frozenset(range(len(template)))
    )
    contract = Contract(template, atom_ids)
    core = IbexCore()
    for records_a, records_b in _record_pairs(template, core, 13, 10):
        for records in (records_a, records_b):
            fast = contract_observation_trace(contract, records)
            reference = contract_observation_trace_reference(contract, records)
            assert fast == reference


def test_contract_trace_rejects_foreign_template(template, refined_template):
    contract = Contract(refined_template, [0, 1])
    with pytest.raises(ValueError):
        compile_template(template).contract_observation_trace(contract, [])


@pytest.fixture(scope="module")
def reference_corpora(template):
    """256 generated cases per core with their reference results."""
    cases = TestCaseGenerator(template, seed=23).generate(256)
    corpora = {}
    for core_name, core_factory in CORES.items():
        reference = TestCaseEvaluator(core_factory(), template, use_fastpath=False)
        corpora[core_name] = (cases, [reference.evaluate(case) for case in cases])
    return corpora


@pytest.mark.parametrize(
    "batch_size", [1, MIN_COLUMNAR_BATCH - 1, MIN_COLUMNAR_BATCH, 256]
)
@pytest.mark.parametrize("core_name", sorted(CORES))
def test_fastpath_dataset_byte_identical(
    template, reference_corpora, core_name, batch_size
):
    """The fast evaluator is byte-identical to the reference on both
    sides of the columnar-engine threshold."""
    cases, want = reference_corpora[core_name]
    fast = TestCaseEvaluator(CORES[core_name](), template)
    got = []
    for start in range(0, len(cases), batch_size):
        got.extend(fast.evaluate_batch(cases[start : start + batch_size]))
    assert EvaluationDataset(got).to_json() == EvaluationDataset(want).to_json()


def test_parallel_fastpath_byte_identical_to_sequential_reference():
    parallel = evaluate_parallel("ibex", 60, seed=31, processes=2, shard_size=15)
    template = build_riscv_template()
    generator = TestCaseGenerator(template, seed=31)
    reference = TestCaseEvaluator(IbexCore(), template, use_fastpath=False)
    sequential = reference.evaluate_many(generator.iter_generate(60))
    assert parallel.to_json() == sequential.to_json()


def test_randomized_feature_rows_cover_every_source(template):
    """Every template source reads the slot the reference closure reads."""
    compiled = compile_template(template)
    rng = random.Random(1234)
    core = IbexCore()
    seen_opcodes = set()
    atoms = list(template)
    generator = TestCaseGenerator(template, seed=77)
    for _ in range(60):
        atom = atoms[rng.randrange(len(atoms))]
        case = generator.generate_for_atom(atom, 0, rng)
        records = core.simulate(
            case.program_a, case.initial_state
        ).trace.exec_records
        for record in records:
            row = compiled.feature_row(record)
            seen_opcodes.add(record.opcode)
            for applicable in template.atoms_for_opcode(record.opcode):
                slot = _slot_of_source(applicable.source, compiled.max_distance)
                assert row[slot] == applicable.observe(record)
    assert len(seen_opcodes) > 10


# ----------------------------------------------------------------------
# Columnar engine vs. reference.  The engine only takes batches of
# MIN_COLUMNAR_BATCH or more cases; these tests lower the threshold so
# small and odd batches run through it too.


@pytest.fixture
def columnar_any_size(monkeypatch):
    monkeypatch.setattr(evaluator_module, "MIN_COLUMNAR_BATCH", 1)


@pytest.mark.parametrize("core_name", ["cva6", "ibex", "ibex-dcache"])
@pytest.mark.parametrize(
    "attacker_name", ["retirement-timing", "total-time", "cache-state"]
)
@pytest.mark.parametrize(
    "template_name", ["riscv-rv32im", "riscv-rv32im-zref", "riscv-mem"]
)
def test_batch_matrix_byte_identical(
    columnar_any_size, core_name, attacker_name, template_name
):
    """Batch-vs-reference matrix: every registered core x attacker x
    template produces byte-identical datasets under the columnar engine."""
    from repro.attacker import ATTACKER_REGISTRY
    from repro.contracts.riscv_template import TEMPLATE_REGISTRY
    from repro.uarch import CORE_REGISTRY

    matrix_template = TEMPLATE_REGISTRY.create(template_name)
    generator = TestCaseGenerator(matrix_template, seed=41)
    cases = list(generator.iter_generate(25))
    batch = TestCaseEvaluator(
        CORE_REGISTRY.create(core_name),
        matrix_template,
        attacker=ATTACKER_REGISTRY.create(attacker_name),
    )
    reference = TestCaseEvaluator(
        CORE_REGISTRY.create(core_name),
        matrix_template,
        attacker=ATTACKER_REGISTRY.create(attacker_name),
        use_fastpath=False,
    )
    dataset_batch = batch.evaluate_many(iter(cases))
    dataset_reference = reference.evaluate_many(iter(cases))
    assert dataset_batch.to_json() == dataset_reference.to_json()


def test_columnar_engine_runs_from_the_threshold_up(monkeypatch, template):
    """The fast evaluator hands a batch to the columnar engine exactly
    when it holds at least MIN_COLUMNAR_BATCH cases."""
    from repro import batchsim

    calls = []
    run_batch = batchsim.run_batch

    def counting_run_batch(core, programs, states):
        calls.append(len(programs))
        return run_batch(core, programs, states)

    monkeypatch.setattr(batchsim, "run_batch", counting_run_batch)
    evaluator = TestCaseEvaluator(IbexCore(), template)
    cases = TestCaseGenerator(template, seed=3).generate(MIN_COLUMNAR_BATCH)
    evaluator.evaluate_batch(cases[:-1])
    assert calls == []
    evaluator.evaluate_batch(cases)
    assert calls == [2 * MIN_COLUMNAR_BATCH]


def test_batch_empty_and_odd_sized_batches(columnar_any_size, template):
    """Edge sizes: empty, single-case, and odd batch sizes all agree."""
    evaluator = TestCaseEvaluator(IbexCore(), template)
    reference = TestCaseEvaluator(IbexCore(), template, use_fastpath=False)
    assert evaluator.evaluate_batch([]) == []
    generator = TestCaseGenerator(template, seed=19)
    cases = list(generator.iter_generate(23))
    for size in (1, 3, 7, 23):
        got = evaluator.evaluate_batch(cases[:size])
        want = [reference.evaluate(case) for case in cases[:size]]
        assert got == want


def test_batch_boundary_straddling_shards(columnar_any_size, template):
    """A batched parallel run whose shard size straddles the count is
    byte-identical to the sequential reference."""
    parallel = evaluate_parallel("ibex", 53, seed=47, executor="serial", shard_size=17)
    generator = TestCaseGenerator(template, seed=47)
    reference = TestCaseEvaluator(IbexCore(), template, use_fastpath=False)
    sequential = reference.evaluate_many(generator.iter_generate(53))
    assert parallel.to_json() == sequential.to_json()


def test_batch_mode_falls_back_for_unknown_core(template):
    """Subclassed cores (possibly overridden timing) take the scalar
    path even for batches the columnar engine would take, staying
    byte-identical."""

    class TweakedIbex(IbexCore):
        name = "tweaked-ibex"

    evaluator = TestCaseEvaluator(TweakedIbex(), template)
    assert not evaluator._batch_engine
    generator = TestCaseGenerator(template, seed=5)
    cases = list(generator.iter_generate(MIN_COLUMNAR_BATCH))
    reference = TestCaseEvaluator(TweakedIbex(), template, use_fastpath=False)
    assert evaluator.evaluate_batch(cases) == [
        reference.evaluate(case) for case in cases
    ]
