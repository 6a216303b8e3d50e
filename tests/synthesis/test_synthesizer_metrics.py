"""Tests for the synthesis front end, metrics, and the FP ranking."""

import pytest

from repro.contracts.riscv_template import build_riscv_template
from repro.contracts.template import Contract
from repro.evaluation.results import EvaluationDataset, TestCaseResult
from repro.metrics.registry import Metrics, install_metrics
from repro.synthesis.metrics import (
    ClassificationCounts,
    evaluate_contract,
    verify_contract_correctness,
)
from repro.synthesis.ranking import format_ranking, rank_atoms_by_false_positives
from repro.synthesis.solvers import BranchAndBoundSolver
from repro.synthesis.synthesizer import ContractSynthesizer, synthesize
from repro.trace import Tracer, install_tracer


@pytest.fixture(scope="module")
def template():
    return build_riscv_template()


def make_dataset(entries):
    return EvaluationDataset(
        [
            TestCaseResult(test_id, dist, frozenset(atoms))
            for test_id, (dist, atoms) in enumerate(entries)
        ]
    )


class TestSynthesizer:
    def test_basic_synthesis(self, template):
        dataset = make_dataset(
            [
                (True, {10, 11}),
                (False, {11}),
            ]
        )
        result = synthesize(dataset, template)
        assert result.contract.atom_ids == {10}
        assert result.false_positives == 0
        assert result.wall_seconds >= 0
        assert result.atom_count == 1

    def test_false_positive_ids_reported(self, template):
        dataset = make_dataset(
            [
                (True, {10}),
                (False, {10}),
                (False, {10}),
            ]
        )
        result = synthesize(dataset, template)
        assert result.false_positives == 2
        assert result.false_positive_test_ids == (1, 2)

    def test_uncoverable_exposed(self, template):
        dataset = make_dataset([(True, set()), (True, {4})])
        result = synthesize(dataset, template)
        assert result.uncoverable_test_ids == (0,)

    def test_restriction_changes_contract(self, template):
        dataset = make_dataset([(True, {10, 20})])
        full = synthesize(dataset, template)
        restricted = synthesize(dataset, template, allowed_atom_ids={20})
        # Both {10} and {20} are optimal singletons for the full
        # template; the restriction must force {20}.
        assert len(full.contract) == 1
        assert full.contract.distinguishes(frozenset({10, 20}))
        assert restricted.contract.atom_ids == {20}

    @pytest.mark.parametrize("solver", [None, BranchAndBoundSolver()])
    def test_six_cycle_returns_the_three_atom_optimum(self, template, solver):
        """Cover rows {1,2}, {2,3}, ..., {6,1}.  The selection
        [1, 2, 4, 5] covers every row at zero false positives and no
        atom of it is redundant, but the optimum takes every other
        atom: three atoms."""
        dataset = make_dataset([(True, {k, k % 6 + 1}) for k in range(1, 7)])
        result = synthesize(dataset, template, solver=solver)
        assert result.false_positives == 0
        assert result.atom_count == 3
        assert result.solver_result.optimal
        for distinguishable in dataset.distinguishable:
            assert result.contract.distinguishes(
                distinguishable.distinguishing_atom_ids
            )

    def test_custom_solver(self, template):
        dataset = make_dataset([(True, {3})])
        synthesizer = ContractSynthesizer(template, solver=BranchAndBoundSolver())
        result = synthesizer.synthesize(dataset)
        assert result.solver_result.solver_name == "branch-and-bound"
        assert result.contract.atom_ids == {3}

    def test_row_reductions_observed(self, template, tmp_path):
        dataset = make_dataset(
            [(True, {1}), (True, {1, 2}), (False, {1, 3}), (False, {2})]
        )
        metrics = Metrics(Tracer(str(tmp_path / "trace.jsonl")))
        previous = install_metrics(metrics)
        try:
            result = ContractSynthesizer(template).synthesize(dataset)
        finally:
            install_metrics(previous)
        stats = result.solver_result.stats
        for name in ("subsumed", "merged", "forced", "folded", "chained"):
            histogram = metrics.histogram("solver.rows." + name)
            assert histogram.snapshot()["total"] == stats["rows." + name]
        assert metrics.histogram("solver.rows.subsumed").snapshot()["total"] == 2
        assert metrics.histogram("solver.constraints").snapshot()["count"] == 1

    def test_build_and_solve_are_separate_spans(self, template):
        dataset = make_dataset([(True, {1, 2}), (False, {2})])
        records = []
        previous = install_tracer(Tracer(None, collector=records))
        try:
            ContractSynthesizer(template).synthesize(dataset)
        finally:
            install_tracer(previous)
        assert [record["kind"] for record in records] == ["ilp-build", "ilp-solve"]
        assert all(record["ok"] and record["seconds"] >= 0 for record in records)

    def test_lp_certificates_counted(self, template, tmp_path):
        # An integral relaxation (certified) and an odd triangle (MILP).
        integral = make_dataset([(True, {1, 5}), (True, {2, 5}), (False, {5})])
        triangle = make_dataset(
            [(True, {1, 2}), (True, {2, 3}), (True, {1, 3})]
            + [(False, {atom}) for atom in (1, 2, 3)]
        )
        metrics = Metrics(Tracer(str(tmp_path / "trace.jsonl")))
        previous = install_metrics(metrics)
        try:
            synthesizer = ContractSynthesizer(template)
            certified = synthesizer.synthesize(integral)
            fallback = synthesizer.synthesize(triangle)
        finally:
            install_metrics(previous)
        assert certified.solver_result.stats["lp_certificate"] == 1.0
        assert fallback.solver_result.stats["lp_certificate"] == 0.0
        assert metrics.counter("solver.cold_solves").value == 2
        assert metrics.counter("solver.lp_certificates").value == 1


class TestMetrics:
    def test_counts_properties(self):
        counts = ClassificationCounts(8, 2, 1, 9)
        assert counts.total == 20
        assert counts.precision == pytest.approx(0.8)
        assert counts.sensitivity == pytest.approx(8 / 9)

    def test_degenerate_precision(self):
        counts = ClassificationCounts(0, 0, 3, 5)
        assert counts.precision is None
        assert counts.sensitivity == 0.0

    def test_degenerate_sensitivity(self):
        counts = ClassificationCounts(0, 1, 0, 5)
        assert counts.sensitivity is None
        assert counts.precision == 0.0

    def test_evaluate_contract(self, template):
        contract = Contract(template, {1})
        dataset = make_dataset(
            [
                (True, {1}),      # TP
                (True, {2}),      # FN
                (False, {1, 3}),  # FP
                (False, {4}),     # TN
            ]
        )
        counts = evaluate_contract(contract, dataset)
        assert (counts.true_positives, counts.false_positives) == (1, 1)
        assert (counts.false_negatives, counts.true_negatives) == (1, 1)

    def test_verify_correctness(self, template):
        dataset = make_dataset(
            [
                (True, {1, 2}),
                (True, {3}),
            ]
        )
        assert verify_contract_correctness(Contract(template, {1, 3}), dataset)
        assert not verify_contract_correctness(Contract(template, {1}), dataset)

    def test_verify_correctness_with_restriction(self, template):
        dataset = make_dataset([(True, {9})])
        # Atom 9 not allowed: the case is unexpressible, vacuously OK.
        assert verify_contract_correctness(
            Contract(template, set()), dataset, allowed_atom_ids={1}
        )

    def test_synthesized_contract_always_correct(self, template):
        import random

        rng = random.Random(0)
        entries = []
        for _ in range(30):
            distinguishable = rng.random() < 0.4
            atoms = set(rng.sample(range(1, 15), rng.randint(1, 4)))
            entries.append((distinguishable, atoms))
        dataset = make_dataset(entries)
        result = synthesize(dataset, template)
        assert verify_contract_correctness(result.contract, dataset)


class TestRanking:
    def test_fp_attribution(self, template):
        contract = Contract(template, {1, 2})
        dataset = make_dataset(
            [
                (True, {1}),
                (True, {2}),
                (False, {1}),        # FP solely from atom 1
                (False, {1, 2}),     # shared FP
                (False, {5}),        # not a contract FP
            ]
        )
        rankings = rank_atoms_by_false_positives(contract, dataset)
        by_id = {ranking.atom_id: ranking for ranking in rankings}
        assert by_id[1].false_positive_count == 2
        assert by_id[1].sole_false_positive_count == 1
        assert by_id[2].false_positive_count == 1
        assert by_id[2].sole_false_positive_count == 0
        assert rankings[0].atom_id == 1  # sorted by FP count

    def test_example_limit(self, template):
        contract = Contract(template, {1})
        dataset = make_dataset([(True, {1})] + [(False, {1})] * 10)
        rankings = rank_atoms_by_false_positives(contract, dataset, max_examples=3)
        assert len(rankings[0].example_test_ids) == 3

    def test_format_ranking(self, template):
        contract = Contract(template, {1})
        dataset = make_dataset([(True, {1}), (False, {1})])
        text = format_ranking(rank_atoms_by_false_positives(contract, dataset))
        assert template.atom(1).name in text
        assert "FPs" in text
