"""Tests for ILP-instance construction and its reductions."""

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.evaluation.results import EvaluationDataset, TestCaseResult
from repro.synthesis.ilp import build_ilp_instance as _build_ilp_instance
from repro.synthesis.ilp import (
    SubsetIndex,
    drop_subsumed_cover_sets,
    eliminate_dominated_atoms,
    largest_proper_subsets,
    undominated_atoms,
)


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


#: Families over few atoms, so sets overlap, nest and tie in size.
_atom_sets = st.frozensets(st.integers(0, 7), min_size=1, max_size=5)
_families = st.lists(_atom_sets, max_size=30)


class TestSubsetIndex:
    @settings(max_examples=200, deadline=None)
    @given(_families, st.lists(st.frozensets(st.integers(0, 7)), max_size=10))
    def test_subsets_match_brute_force(self, sets, queries):
        index = SubsetIndex(sets)
        for atoms in sets + queries:
            found = list(index.subsets(atoms))
            assert len(found) == len(set(found))
            expected = {
                position for position, other in enumerate(sets) if other <= atoms
            }
            assert set(found) == expected

    @settings(max_examples=200, deadline=None)
    @given(_families, st.booleans())
    def test_largest_proper_subsets_match_brute_force(self, sets, distinct):
        if distinct:
            sets = list(dict.fromkeys(sets))
        expected = []
        for atoms in sets:
            subsets = [
                (-len(other), position)
                for position, other in enumerate(sets)
                if other < atoms
            ]
            expected.append(min(subsets)[1] if subsets else -1)
        assert largest_proper_subsets(sets) == expected


#: Un-reduced instances of random datasets (test ids 0, 1, ...).
_raw_instances = st.lists(st.tuples(st.booleans(), _atom_sets), max_size=40).map(
    lambda entries: build_ilp_instance(
        make_dataset([(test_id, *entry) for test_id, entry in enumerate(entries)])
    )
)


@settings(max_examples=200, deadline=None)
@given(_raw_instances)
def test_dominance_keeps_the_maximal_signatures(instance):
    """Reduction 4 equals an all-pairs scan: per distinct signature its
    smallest atom, unless another signature strictly dominates it."""
    fp_sets = [atoms for atoms, _weight in instance.fp_sets]
    signatures = {}
    for atom_id in instance.candidate_atom_ids:
        signature = tuple(
            frozenset(row for row, atoms in enumerate(rows) if atom_id in atoms)
            for rows in (instance.cover_sets, fp_sets)
        )
        signatures.setdefault(signature, atom_id)
    expected = {
        atom_id
        for (cover_b, fp_b), atom_id in signatures.items()
        if not any(
            (cover_a, fp_a) != (cover_b, fp_b) and cover_b <= cover_a and fp_a <= fp_b
            for cover_a, fp_a in signatures
        )
    }
    assert undominated_atoms(instance) == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(_atom_sets, max_size=30, unique=True))
def test_subsumed_cover_ids_land_in_a_kept_subset(cover_sets):
    # Row ``i`` holds test ids ``2i`` and ``2i + 1``.
    rows = [
        (atoms, 1, (2 * position, 2 * position + 1))
        for position, atoms in enumerate(cover_sets)
    ]
    kept = drop_subsumed_cover_sets(rows)
    minimal = {
        atoms for atoms in cover_sets if not any(other < atoms for other in cover_sets)
    }
    assert {atoms for atoms, _count, _ids in kept} == minimal
    home = Counter()
    for atoms, _count, ids in kept:
        for test_id in ids:
            home[test_id] += 1
            assert atoms <= cover_sets[test_id // 2]
    assert sorted(home) == list(range(2 * len(cover_sets)))
    assert set(home.values()) <= {1}


@settings(max_examples=100, deadline=None)
@given(_raw_instances)
def test_every_covered_case_lands_in_one_row_of_its_own_atoms(raw):
    """After all reductions, each coverable case's id sits in exactly one
    cover row, and that row only holds atoms distinguishing the case."""
    atoms_of = {
        test_id: atoms
        for atoms, ids in zip(raw.cover_sets, raw.cover_test_ids)
        for test_id in ids
    }
    reduced = eliminate_dominated_atoms(raw)
    home = Counter(test_id for ids in reduced.cover_test_ids for test_id in ids)
    assert home.keys() == atoms_of.keys() and set(home.values()) <= {1}
    for atoms, ids in zip(reduced.cover_sets, reduced.cover_test_ids):
        assert all(atoms <= atoms_of[test_id] for test_id in ids)
