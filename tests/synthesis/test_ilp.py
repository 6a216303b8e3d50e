"""Tests for ILP-instance construction and its reductions."""

from repro.evaluation.results import EvaluationDataset, TestCaseResult
from repro.synthesis.ilp import build_ilp_instance as _build_ilp_instance
from repro.synthesis.ilp import eliminate_dominated_atoms


def build_ilp_instance(dataset, allowed_atom_ids=None):
    """Structural tests inspect the un-reduced instance."""
    return _build_ilp_instance(dataset, allowed_atom_ids, reduce_dominated=False)


def make_dataset(entries):
    """entries: list of (test_id, attacker_dist, atom_ids)."""
    return EvaluationDataset(
        [
            TestCaseResult(test_id, dist, frozenset(atoms))
            for test_id, dist, atoms in entries
        ]
    )


def test_candidates_limited_to_cover_atoms():
    dataset = make_dataset(
        [
            (0, True, {1, 2}),
            (1, False, {2, 3}),   # atom 3 appears only here
        ]
    )
    instance = build_ilp_instance(dataset)
    assert instance.candidate_atom_ids == (1, 2)
    assert instance.cover_sets == (frozenset({1, 2}),)
    assert instance.fp_sets == ((frozenset({2}),  1),)


def test_duplicate_cover_sets_merged():
    dataset = make_dataset(
        [
            (0, True, {1, 2}),
            (1, True, {1, 2}),
            (2, True, {3}),
        ]
    )
    instance = build_ilp_instance(dataset)
    assert len(instance.cover_sets) == 2
    ids = dict(zip(instance.cover_sets, instance.cover_test_ids))
    assert set(ids[frozenset({1, 2})]) == {0, 1}


def test_duplicate_fp_sets_weighted():
    dataset = make_dataset(
        [
            (0, True, {1}),
            (1, False, {1}),
            (2, False, {1}),
        ]
    )
    instance = build_ilp_instance(dataset)
    assert instance.fp_sets == ((frozenset({1}), 2),)
    assert instance.total_fp_weight == 2


def test_uncoverable_cases_reported():
    dataset = make_dataset(
        [
            (0, True, set()),       # no distinguishing atoms at all
            (1, True, {5}),
        ]
    )
    instance = build_ilp_instance(dataset)
    assert instance.uncoverable_test_ids == (0,)
    assert instance.cover_sets == (frozenset({5}),)


def test_template_restriction():
    dataset = make_dataset(
        [
            (0, True, {1, 9}),
            (1, True, {9}),
            (2, False, {1, 5}),
        ]
    )
    instance = build_ilp_instance(dataset, allowed_atom_ids={1, 5})
    # Case 1 only distinguishable by atom 9, which is not allowed.
    assert instance.uncoverable_test_ids == (1,)
    assert instance.candidate_atom_ids == (1,)
    assert instance.fp_sets == ((frozenset({1}), 1),)


def test_indist_cases_outside_candidates_dropped():
    dataset = make_dataset(
        [
            (0, True, {1}),
            (1, False, {7, 8}),   # intersects no candidate
        ]
    )
    instance = build_ilp_instance(dataset)
    assert instance.fp_sets == ()


def test_false_positive_weight_and_covers_all():
    dataset = make_dataset(
        [
            (0, True, {1, 2}),
            (1, True, {3}),
            (2, False, {1}),
            (3, False, {1, 3}),
            (4, False, {2}),
        ]
    )
    instance = build_ilp_instance(dataset)
    assert instance.covers_all({1, 3})
    assert not instance.covers_all({1})
    assert instance.false_positive_weight({1, 3}) == 2  # cases 2 and 3
    assert instance.false_positive_weight({2, 3}) == 2  # cases 3 and 4
    assert instance.false_positive_weight(set()) == 0


def test_false_positive_test_ids():
    dataset = make_dataset(
        [
            (0, True, {1, 2}),
            (5, False, {1}),
            (6, False, {2}),
        ]
    )
    instance = build_ilp_instance(dataset)
    assert instance.false_positive_test_ids({1}) == [5]
    assert instance.false_positive_test_ids({2}) == [6]
    assert instance.false_positive_test_ids({1, 2}) == [5, 6]


def test_empty_dataset():
    instance = build_ilp_instance(make_dataset([]))
    assert instance.candidate_atom_ids == ()
    assert instance.cover_sets == ()
    assert instance.covers_all(set())
    assert instance.atom_count == 0


class TestDominanceReduction:
    def test_identical_signatures_deduplicated(self):
        dataset = make_dataset([(0, True, {1, 2}), (1, False, {1, 2})])
        instance = eliminate_dominated_atoms(build_ilp_instance(dataset))
        assert instance.candidate_atom_ids == (1,)
        assert instance.cover_sets == (frozenset({1}),)

    def test_strictly_dominated_atom_removed(self):
        # Atom 1 covers the same constraint as atom 2 with fewer FPs.
        dataset = make_dataset(
            [(0, True, {1, 2}), (1, False, {2})]
        )
        instance = eliminate_dominated_atoms(build_ilp_instance(dataset))
        assert instance.candidate_atom_ids == (1,)
        assert instance.fp_sets == ()  # atom 2's FP set lost its atoms

    def test_incomparable_atoms_kept(self):
        # Atom 5 covers more but also costs an FP: incomparable to 1/2.
        dataset = make_dataset(
            [
                (0, True, {1, 5}),
                (1, True, {2, 5}),
                (2, False, {5}),
            ]
        )
        instance = eliminate_dominated_atoms(build_ilp_instance(dataset))
        assert instance.candidate_atom_ids == (1, 2, 5)

    def test_reduction_preserves_optimum(self):
        import random

        from repro.synthesis.solvers import BranchAndBoundSolver

        rng = random.Random(5)
        entries = []
        for test_id in range(14):
            entries.append(
                (
                    test_id,
                    rng.random() < 0.5,
                    set(rng.sample(range(1, 9), rng.randint(1, 3))),
                )
            )
        dataset = make_dataset(entries)
        raw = build_ilp_instance(dataset)
        reduced = eliminate_dominated_atoms(raw)
        assert set(reduced.candidate_atom_ids) <= set(raw.candidate_atom_ids)
        solver = BranchAndBoundSolver()
        assert (
            solver.solve(raw).false_positives
            == solver.solve(reduced).false_positives
        )

    def test_default_build_reduces(self):
        dataset = make_dataset([(0, True, {1, 2}), (1, False, {2})])
        instance = _build_ilp_instance(dataset)
        assert instance.candidate_atom_ids == (1,)

    def test_rows_equal_after_dominance_merge(self):
        # Atom 2 is dominated by atom 1 (same cover row, more FPs), so
        # the FP sets {2, 3} and {3} become equal once it is dropped.
        dataset = make_dataset(
            [
                (0, True, {1, 2}),
                (1, True, {3, 4}),
                (2, False, {2, 3}),
                (3, False, {3}),
                (4, False, {4}),
            ]
        )
        instance = _build_ilp_instance(dataset)
        assert instance.candidate_atom_ids == (1, 3, 4)
        assert instance.fp_sets == ((frozenset({3}), 2), (frozenset({4}), 1))
        assert instance.fp_test_ids == ((2, 3), (4,))
        assert instance.false_positive_test_ids({3}) == [2, 3]
        assert instance.reduced_rows["merged"] == 1


class TestCoverSubsumption:
    def test_superset_row_dropped_and_orphan_pruned(self):
        # {1, 2} is implied by {1}; atom 2 then covers nothing.  Neither
        # atom dominates the other (each has its own false positive).
        dataset = make_dataset(
            [
                (0, True, {1}),
                (1, True, {1, 2}),
                (2, False, {1}),
                (3, False, {2}),
            ]
        )
        raw = build_ilp_instance(dataset)
        assert eliminate_dominated_atoms(raw).candidate_atom_ids == (1,)
        instance = _build_ilp_instance(dataset)
        assert instance.cover_sets == (frozenset({1}),)
        assert instance.cover_test_ids == ((0, 1),)
        assert instance.candidate_atom_ids == (1,)
        assert instance.fp_sets == ((frozenset({1}), 1),)
        # One cover row, plus the FP row of the pruned atom.
        assert instance.reduced_rows == {"merged": 0, "subsumed": 2}

    def test_only_proper_supersets_dropped(self):
        dataset = make_dataset(
            [
                (0, True, {1, 2}),
                (1, True, {2, 3}),
                (2, True, {1, 2, 3}),
                (3, False, {1}),
                (4, False, {2}),
                (5, False, {3}),
            ]
        )
        instance = _build_ilp_instance(dataset)
        assert instance.cover_sets == (frozenset({1, 2}), frozenset({2, 3}))
        assert instance.candidate_atom_ids == (1, 2, 3)
