"""Micro-benchmarks of the toolchain's hot paths.

These are conventional pytest-benchmark measurements (many rounds) of
the per-component costs that dominate the end-to-end experiments:
core simulation, atom extraction, test-case generation, and template
construction.
"""

import random

import pytest

from repro.contracts.compiled import compile_template
from repro.contracts.observations import (
    distinguishing_atoms,
    distinguishing_atoms_reference,
)
from repro.contracts.riscv_template import build_riscv_template
from repro.isa.assembler import assemble
from repro.isa.executor import execute_program
from repro.isa.state import ArchState
from repro.testgen.generator import TestCaseGenerator
from repro.uarch.cva6 import CVA6Core
from repro.uarch.ibex import IbexCore

_PROGRAM = """
    addi x1, x0, 0x102
    lw   x2, 0(x1)
    sw   x1, 2(x1)
    slli x3, x1, 9
    mul  x4, x3, x1
    div  x5, x4, x1
    beq  x5, x5, 4
    add  x6, x5, x4
    sub  x7, x6, x3
    and  x8, x7, x1
"""


@pytest.fixture(scope="module")
def program():
    return assemble(_PROGRAM)


@pytest.fixture(scope="module")
def test_case(template):
    generator = TestCaseGenerator(template, seed=1)
    return generator.generate(1)[0]


def test_bench_isa_executor(benchmark, program):
    def run():
        state = ArchState(pc=program.base_address)
        return execute_program(program, state)

    records = benchmark(run)
    assert len(records) == 10


def test_bench_ibex_simulation(benchmark, program):
    core = IbexCore()
    result = benchmark(core.simulate, program)
    assert result.retired_instructions == 10


def test_bench_cva6_simulation(benchmark, program):
    core = CVA6Core()
    result = benchmark(core.simulate, program)
    assert result.retired_instructions == 10


def test_bench_atom_extraction(benchmark, template, test_case):
    records_a = execute_program(
        test_case.program_a, test_case.initial_state.copy()
    )
    records_b = execute_program(
        test_case.program_b, test_case.initial_state.copy()
    )
    atoms = benchmark(distinguishing_atoms, template, records_a, records_b)
    assert isinstance(atoms, frozenset)


def test_bench_atom_extraction_reference(benchmark, template, test_case):
    """Reference (closure-per-atom) path — paired with
    ``test_bench_atom_extraction`` to measure the fast-path speedup."""
    records_a = execute_program(
        test_case.program_a, test_case.initial_state.copy()
    )
    records_b = execute_program(
        test_case.program_b, test_case.initial_state.copy()
    )
    atoms = benchmark(
        distinguishing_atoms_reference, template, records_a, records_b
    )
    assert isinstance(atoms, frozenset)


def test_bench_atom_extraction_fastpath_matches_reference(template, test_case):
    """Not a benchmark: pins the pairing of the two benchmarks above."""
    records_a = execute_program(
        test_case.program_a, test_case.initial_state.copy()
    )
    records_b = execute_program(
        test_case.program_b, test_case.initial_state.copy()
    )
    fast = compile_template(template).distinguishing_atoms(records_a, records_b)
    assert fast == distinguishing_atoms_reference(template, records_a, records_b)


def test_bench_test_case_generation(benchmark, template):
    generator = TestCaseGenerator(template, seed=9)
    counter = [0]

    def generate():
        counter[0] += 1
        return generator.generate(10, start_id=counter[0] * 10)

    cases = benchmark(generate)
    assert len(cases) == 10


def test_bench_template_construction(benchmark):
    template = benchmark(build_riscv_template)
    assert len(template) == 892


#: The pinned end-to-end corpus: generated once outside every timed
#: region so both sides of each pair evaluate the identical workload.
#: Sized to the evaluator's DEFAULT_BATCH_SIZE — the columnar engine's
#: intended operating width.
_E2E_COUNT = 256
_E2E_SEED = 17


@pytest.fixture(scope="module")
def e2e_corpus(template):
    generator = TestCaseGenerator(template, seed=_E2E_SEED)
    rng = random.Random(0)
    atoms = list(template)
    return [
        generator.generate_for_atom(
            atoms[rng.randrange(len(atoms))], test_id, rng
        )
        for test_id in range(_E2E_COUNT)
    ]


def test_bench_end_to_end_test_case(benchmark, template, e2e_corpus):
    """Full evaluation of the pinned corpus through the default
    evaluator, which takes the columnar engine at this width — paired
    with ``test_bench_end_to_end_test_case_reference`` to measure the
    end-to-end speedup over the interpreter oracle."""
    from repro.evaluation.evaluator import TestCaseEvaluator

    evaluator = TestCaseEvaluator(IbexCore(), template)
    results = benchmark(evaluator.evaluate_batch, e2e_corpus)
    assert len(results) == _E2E_COUNT


def test_bench_end_to_end_test_case_reference(benchmark, template, e2e_corpus):
    """The same corpus through the per-case interpreter path — paired
    with ``test_bench_end_to_end_test_case`` to measure the speedup."""
    from repro.evaluation.evaluator import TestCaseEvaluator

    evaluator = TestCaseEvaluator(IbexCore(), template, use_fastpath=False)

    def evaluate_all():
        return [evaluator.evaluate(case) for case in e2e_corpus]

    results = benchmark(evaluate_all)
    assert len(results) == _E2E_COUNT


def test_bench_end_to_end_batch_matches_reference(template, e2e_corpus):
    """Not a benchmark: pins the pairing of the two benchmarks above —
    identical corpus, byte-identical results."""
    from repro.evaluation.evaluator import TestCaseEvaluator
    from repro.evaluation.results import EvaluationDataset

    batch = TestCaseEvaluator(IbexCore(), template)
    reference = TestCaseEvaluator(IbexCore(), template, use_fastpath=False)
    batched = EvaluationDataset(batch.evaluate_batch(e2e_corpus))
    scalar = EvaluationDataset([reference.evaluate(c) for c in e2e_corpus])
    assert batched.to_json() == scalar.to_json()


def _pair_lanes(corpus):
    """Both programs of every test case — the lanes the evaluator runs."""
    programs = [case.program_a for case in corpus]
    programs += [case.program_b for case in corpus]
    states = [case.initial_state for case in corpus] * 2
    return programs, states


def _bench_batch_simulation(benchmark, core, corpus):
    """Time the columnar engine in the form the batched evaluator
    consumes: one ``run_batch`` plus the attacker-sufficient lane views
    (full ``SimulationResult`` materialization is the scalar-compat
    path, not how the pipeline reads batches)."""
    from repro.batchsim.simulate import run_batch

    programs, states = _pair_lanes(corpus)

    def simulate_batch():
        simulation = run_batch(core, programs, states)
        return [simulation.view(lane) for lane in range(len(programs))]

    views = benchmark(simulate_batch)
    assert len(views) == 2 * _E2E_COUNT


def _bench_scalar_simulation(benchmark, core, corpus):
    """The same lanes through sequential ``Core.simulate`` calls."""
    programs, states = _pair_lanes(corpus)

    def simulate_all():
        return [
            core.simulate(program, state)
            for program, state in zip(programs, states)
        ]

    results = benchmark(simulate_all)
    assert len(results) == 2 * _E2E_COUNT


def test_bench_batch_ibex_simulation(benchmark, e2e_corpus):
    """Corpus pair lanes through the columnar engine on ibex — paired
    with ``test_bench_batch_ibex_simulation_reference`` to measure the
    engine's simulation-only speedup."""
    _bench_batch_simulation(benchmark, IbexCore(), e2e_corpus)


def test_bench_batch_ibex_simulation_reference(benchmark, e2e_corpus):
    _bench_scalar_simulation(benchmark, IbexCore(), e2e_corpus)


def test_bench_batch_cva6_simulation(benchmark, e2e_corpus):
    """The CVA6 twin of ``test_bench_batch_ibex_simulation``."""
    _bench_batch_simulation(benchmark, CVA6Core(), e2e_corpus)


def test_bench_batch_cva6_simulation_reference(benchmark, e2e_corpus):
    _bench_scalar_simulation(benchmark, CVA6Core(), e2e_corpus)


#: The pinned adaptive-convergence scenario: the riscv-mem contract on
#: ibex-dcache under the cache-state attacker saturates within a few
#: hundred cases, so convergence is deterministic.
_ADAPTIVE_SCENARIO = dict(core="ibex-dcache", attacker="cache-state")
_ADAPTIVE_TEMPLATE = "riscv-mem"
_ADAPTIVE_SEED = 7
_ADAPTIVE_ROUNDS = 12
_ADAPTIVE_BATCH = 60
#: Contract-stable patience of the pinned loop.  Under the solver's
#: exact (false positives, atom count) order the loop holds one 9-atom
#: contract from 240 to 360 cases (a tie-agnostic solver returned 10
#: atoms at 240), so the default patience of 2 stops at 360 cases,
#: before the contract settles on the fixed-budget 8-atom one at 420.
#: Patience 3 converges to it at 600 of 720 cases.
_ADAPTIVE_PATIENCE = 3


def _adaptive_loop():
    """The pinned coverage-guided loop, run to convergence."""
    from repro.adaptive import AdaptiveLoop, ContractStableRule
    from repro.pipeline.config import AdaptivePlan, PipelineConfig

    stop = ContractStableRule(patience=_ADAPTIVE_PATIENCE)
    config = PipelineConfig(
        template=_ADAPTIVE_TEMPLATE,
        generator="coverage",
        seed=_ADAPTIVE_SEED,
        adaptive=AdaptivePlan(_ADAPTIVE_ROUNDS, _ADAPTIVE_BATCH, stop),
        **_ADAPTIVE_SCENARIO,
    )
    return AdaptiveLoop(config)


def test_bench_adaptive_convergence(benchmark):
    """The coverage-guided loop run to convergence — paired with
    ``test_bench_adaptive_convergence_reference`` (the fixed-budget run
    at the loop's case ceiling).  The adaptive win is *cases to
    converge* (deterministic; recorded in ``extra_info``); the wall
    time additionally carries the per-round solver overhead, so the
    paired "speedup" may sit below 1.0 at this tiny scale where
    simulation is cheap."""

    def run_loop():
        return _adaptive_loop().run()

    result = benchmark(run_loop)
    benchmark.extra_info["cases_to_converge"] = result.total_cases
    assert result.stop_reason.startswith("contract stable")


def test_bench_adaptive_convergence_reference(benchmark):
    """The fixed-budget pipeline at the adaptive loop's case ceiling."""
    from repro.pipeline import SynthesisPipeline

    def run_fixed():
        return (
            SynthesisPipeline()
            .core(_ADAPTIVE_SCENARIO["core"])
            .attacker(_ADAPTIVE_SCENARIO["attacker"])
            .template(_ADAPTIVE_TEMPLATE)
            .budget(_ADAPTIVE_ROUNDS * _ADAPTIVE_BATCH, seed=_ADAPTIVE_SEED)
            .verify(0)
            .run()
        )

    result = benchmark(run_fixed)
    benchmark.extra_info["cases_to_converge"] = len(result.dataset)


def test_bench_adaptive_matches_fixed_with_fewer_cases():
    """Not a benchmark: pins the pairing of the two benchmarks above —
    same contract, measurably fewer evaluated cases."""
    from repro.pipeline import SynthesisPipeline

    adaptive = _adaptive_loop().run()
    fixed = (
        SynthesisPipeline()
        .core(_ADAPTIVE_SCENARIO["core"])
        .attacker(_ADAPTIVE_SCENARIO["attacker"])
        .template(_ADAPTIVE_TEMPLATE)
        .budget(_ADAPTIVE_ROUNDS * _ADAPTIVE_BATCH, seed=_ADAPTIVE_SEED)
        .verify(0)
        .run()
    )
    assert adaptive.contract.atom_ids == fixed.contract.atom_ids
    assert adaptive.total_cases < len(fixed.dataset)


#: The pinned round-pipeline corpus: ibex, ``riscv-rv32im``,
#: ``coverage``, 8 rounds of 250 cases (the ``ibex-adaptive-8x250``
#: e2ebench workload) at generator seed 7, whose eight ILPs take
#: comparable time, so there are solves to overlap.
_PIPELINE_SEED = 7


def _run_round_pipeline(processes):
    from repro.adaptive import AdaptiveLoop
    from repro.pipeline.config import AdaptivePlan, PipelineConfig

    config = PipelineConfig(
        generator="coverage",
        seed=_PIPELINE_SEED,
        adaptive=AdaptivePlan(rounds=8, batch=250),
    )
    result = AdaptiveLoop(config, processes=processes).run()
    assert result.total_cases == 2000
    return result


def test_bench_adaptive_round_pipeline(benchmark):
    """``AdaptiveLoop.run()`` at the default width (the usable CPUs, at
    most 8): rounds evaluate while earlier rounds solve on the solve
    pool.  Paired with ``test_bench_adaptive_round_pipeline_reference``
    (width 1: each round solves in-process before the next starts).
    The ratio is informational: it follows the runner's CPU count, and
    a one-CPU runner runs width 1 on both sides."""
    from repro.evaluation.backends.executors import default_processes

    benchmark.extra_info["width"] = default_processes(None)
    benchmark.pedantic(_run_round_pipeline, args=(None,), rounds=3, iterations=1)


def test_bench_adaptive_round_pipeline_reference(benchmark):
    """The round-pipeline benchmark's corpus at width 1."""
    benchmark.extra_info["width"] = 1
    benchmark.pedantic(_run_round_pipeline, args=(1,), rounds=3, iterations=1)


#: The pinned workqueue-overhead corpus: small enough that evaluation
#: itself is cheap, so the paired ratio is dominated by what we want to
#: see — queue bookkeeping (enqueue, claim protocol, polling, result
#: files) plus worker startup.
_WORKQUEUE_COUNT = 60
_WORKQUEUE_SEED = 11
_WORKQUEUE_SHARD = 15


@pytest.fixture(scope="module")
def workqueue_reference_json():
    from repro.evaluation.parallel import evaluate_parallel

    dataset = evaluate_parallel(
        "ibex",
        _WORKQUEUE_COUNT,
        seed=_WORKQUEUE_SEED,
        shard_size=_WORKQUEUE_SHARD,
        executor="serial",
    )
    return dataset.to_json()


def test_bench_workqueue_overhead(benchmark, tmp_path, workqueue_reference_json):
    """The distributed work queue with embedded workers on a tiny fixed
    corpus — paired with ``test_bench_workqueue_overhead_reference``
    (serial on the identical workload).  The ratio is *overhead*, not a
    speedup: it prices the queue's claim/lease/result machinery against
    the bare evaluation loop, so it is reported informationally and
    never gated.  One round only: budget-free job ids would serve any
    repeat from the first round's results and measure nothing."""
    from repro.evaluation.parallel import evaluate_parallel
    from repro.service.workqueue import WorkQueueExecutor

    def run_workqueue():
        return evaluate_parallel(
            "ibex",
            _WORKQUEUE_COUNT,
            seed=_WORKQUEUE_SEED,
            shard_size=_WORKQUEUE_SHARD,
            executor=WorkQueueExecutor(
                queue_dir=str(tmp_path / "queue"),
                embedded_workers=2,
                poll_seconds=0.01,
                wait_for_workers=15.0,
            ),
        )

    dataset = benchmark.pedantic(run_workqueue, rounds=1, iterations=1)
    assert dataset.to_json() == workqueue_reference_json


def test_bench_workqueue_overhead_reference(
    benchmark, workqueue_reference_json
):
    """The serial executor on the workqueue benchmark's exact workload."""
    from repro.evaluation.parallel import evaluate_parallel

    def run_serial():
        return evaluate_parallel(
            "ibex",
            _WORKQUEUE_COUNT,
            seed=_WORKQUEUE_SEED,
            shard_size=_WORKQUEUE_SHARD,
            executor="serial",
        )

    dataset = benchmark.pedantic(run_serial, rounds=1, iterations=1)
    assert dataset.to_json() == workqueue_reference_json


#: The pinned directed-verification workload: a contract synthesized
#: from ``_VERIFY_CASES`` ibex cases at seed 0, checked on as many
#: fresh cases at seed 1.
_VERIFY_CASES = 2000


@pytest.fixture(scope="module")
def verify_contract(template):
    from repro.evaluation.parallel import evaluate_parallel
    from repro.synthesis.synthesizer import synthesize

    dataset = evaluate_parallel("ibex", _VERIFY_CASES, seed=0, executor="serial")
    return synthesize(dataset, template).contract


def test_bench_directed_verify(benchmark, verify_contract):
    """``check_contract_satisfaction`` on the pinned contract: the
    fresh cases evaluate through the shard loop on a forked pool of the
    usable CPUs.  Paired with ``test_bench_directed_verify_reference``
    (the same check, one case at a time in this process).  The ratio
    is informational: it follows the runner's CPU count."""
    from repro.evaluation.backends.executors import default_processes
    from repro.verification.checker import check_contract_satisfaction

    def verify():
        return check_contract_satisfaction(
            verify_contract, IbexCore(), test_cases=_VERIFY_CASES, seed=1
        )

    benchmark.extra_info["width"] = default_processes(None)
    report = benchmark.pedantic(verify, rounds=3, iterations=1)
    assert report.test_cases == _VERIFY_CASES


def test_bench_directed_verify_reference(benchmark, verify_contract):
    """The directed-verification benchmark's check, evaluating one case
    at a time in this process."""
    from repro.evaluation.evaluator import TestCaseEvaluator

    def verify():
        evaluator = TestCaseEvaluator(IbexCore(), verify_contract.template)
        generator = TestCaseGenerator(verify_contract.template, seed=1)
        covered = distinguishable = 0
        for case in generator.iter_generate(_VERIFY_CASES):
            result = evaluator.evaluate(case)
            if result.attacker_distinguishable:
                distinguishable += 1
                covered += verify_contract.distinguishes(
                    result.distinguishing_atom_ids
                )
        return covered, distinguishable

    covered, distinguishable = benchmark.pedantic(verify, rounds=3, iterations=1)
    assert 0 < covered <= distinguishable
