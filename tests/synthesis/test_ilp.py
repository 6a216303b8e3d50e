"""Tests for ILP-instance construction and its reductions."""

import random
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.evaluation.results import EvaluationDataset, TestCaseResult
from repro.synthesis import highs, ilp
from repro.synthesis.ilp import build_ilp_instance as _build_ilp_instance
from repro.synthesis.ilp import (
    IlpInstance,
    largest_proper_subsets,
    pack_bits,
    subset_pairs,
    undominated_atoms,
    unpack_bits,
)
from repro.synthesis.solvers import ScipyMilpSolver


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
            (1, False, {2, 3}),  # atom 3 appears only here
        ]
    )
    instance = build_ilp_instance(dataset)
    assert instance.candidate_atom_ids == (1, 2)
    assert instance.cover_sets == (frozenset({1, 2}),)
    assert instance.fp_sets == ((frozenset({2}), 1),)


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
            (0, True, set()),  # no distinguishing atoms at all
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
            (1, False, {7, 8}),  # intersects no candidate
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
        instance = _build_ilp_instance(dataset)
        assert instance.candidate_atom_ids == (1,)
        assert instance.cover_sets == (frozenset({1}),)

    def test_strictly_dominated_atom_removed(self):
        # Atom 1 covers the same constraint as atom 2 with fewer FPs.
        dataset = make_dataset([(0, True, {1, 2}), (1, False, {2})])
        instance = _build_ilp_instance(dataset)
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
        instance = _build_ilp_instance(dataset)
        assert instance.candidate_atom_ids == (1, 2, 5)

    def test_reduction_preserves_optimum(self):
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
        reduced = _build_ilp_instance(dataset)
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


#: The largest atom id of the ``riscv-rv32im`` template (892 atoms).
TEMPLATE_MAX_ATOM = 891

#: Atom ids on both sides of the 64-bit word boundaries, and the last.
_EDGE_ATOMS = (0, 1, 62, 63, 64, 65, 126, 127, 128, 129, 830, 831, 832, 890)
_EDGE_ATOMS += (TEMPLATE_MAX_ATOM,)

#: Few atoms, so that sets overlap, nest and tie in size.
_atom_ids = st.one_of(st.integers(0, 7), st.sampled_from(_EDGE_ATOMS))
_atom_sets = st.frozensets(_atom_ids, min_size=1, max_size=5)

#: Families over 8 atoms, so that sets overlap, nest and tie in size,
#: drawn over 0-7 and then placed (:func:`place`) on ids 0-7 or on 8 of
#: the word-boundary ids, in any order.
_small_sets = st.frozensets(st.integers(0, 7), min_size=1, max_size=5)
_families = st.lists(_small_sets, max_size=30)
_placements = st.one_of(
    st.just(tuple(range(8))), st.permutations(_EDGE_ATOMS).map(lambda ids: ids[:8])
)


def place(sets, placement):
    """``sets`` with each atom ``a`` moved to ``placement[a]``."""
    return [frozenset(placement[atom] for atom in atoms) for atoms in sets]


def pack(sets, words=None):
    """Packed rows of ``sets`` over atom ids."""
    sets = list(sets)
    if words is None:
        words = TEMPLATE_MAX_ATOM // 64 + 1
    rows = np.repeat(np.arange(len(sets)), [len(atoms) for atoms in sets])
    bits = [atom_id for atoms in sets for atom_id in atoms]
    return pack_bits(rows, bits, len(sets), words)


#: Subset queries check a few pairs at a time, or the default number.
_pair_chunks = st.sampled_from([1, 3, ilp.PAIR_CHUNK])


def pair_chunk(chunk):
    return mock.patch.object(ilp, "PAIR_CHUNK", chunk)


class TestPackedRows:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.frozensets(_atom_ids, max_size=6), max_size=20))
    def test_pack_round_trip(self, sets):
        rows, bits = unpack_bits(pack(sets))
        unpacked = [frozenset(bits[rows == row].tolist()) for row in range(len(sets))]
        assert unpacked == sets
        assert list(rows) == sorted(rows)
        assert ilp.popcounts(pack(sets)).tolist() == [len(atoms) for atoms in sets]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_atom_sets, max_size=30))
    def test_canonical_groups_sort_by_atom_ids(self, sets):
        distinct, position = ilp._canonical_groups(pack(sets))
        rows, bits = unpack_bits(distinct)
        grouped = [
            frozenset(bits[rows == row].tolist()) for row in range(len(distinct))
        ]
        assert grouped == sorted(set(sets), key=sorted)
        assert [grouped[index] for index in position] == sets


class TestSubsetQuery:
    @settings(max_examples=200, deadline=None)
    @given(
        _families,
        st.lists(st.frozensets(st.integers(0, 7)), max_size=10),
        _placements,
        _pair_chunks,
    )
    def test_subset_pairs_match_brute_force(self, sets, queries, placement, chunk):
        sets = place(sets, placement)
        queries = sets + place(queries, placement)
        with pair_chunk(chunk):
            found_queries, found_sets = subset_pairs(pack(queries), pack(sets))
        found = list(zip(found_queries.tolist(), found_sets.tolist()))
        assert len(found) == len(set(found))
        assert found_queries.tolist() == sorted(found_queries.tolist())
        expected = {
            (query, position)
            for query, atoms in enumerate(queries)
            for position, other in enumerate(sets)
            if other <= atoms
        }
        assert set(found) == expected

    def test_empty_rows(self):
        one = pack([frozenset({1})])
        for queries, stored in ((pack([frozenset()]), one), (one, pack([]))):
            found_queries, found_stored = subset_pairs(queries, stored)
            assert len(found_queries) == len(found_stored) == 0
        with pytest.raises(ValueError):
            subset_pairs(one, pack([frozenset()]))

    def test_signature_collisions_are_checked_word_by_word(self):
        # Atom 121 (bit 57 of word 1, turned by 7) and atom 869 (bit 37
        # of word 13, turned by 27) share atom 0's signature bit, and
        # the first two rows are filed under atom 0, so query {0} meets
        # them and only their words tell them apart.
        sets = [{0, 121}, {0, 869}, {121}, {869}]
        stored = pack(map(frozenset, sets))
        queries = pack([frozenset({0}), frozenset({0, 121, 869})])
        found_queries, found_stored = subset_pairs(queries, stored)
        assert found_queries.tolist() == [1] * 4
        assert sorted(found_stored.tolist()) == [0, 1, 2, 3]

    @settings(max_examples=200, deadline=None)
    @given(_families, st.booleans(), _placements, _pair_chunks)
    def test_largest_proper_subsets_match_brute_force(
        self, sets, distinct, placement, chunk
    ):
        sets = place(sets, placement)
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
        with pair_chunk(chunk):
            assert largest_proper_subsets(pack(sets)).tolist() == expected


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
    packed = instance.packed()
    _row, kept = unpack_bits(undominated_atoms(packed.cover, packed.fp)[None, :])
    assert {instance.candidate_atom_ids[position] for position in kept} == expected


@settings(max_examples=200, deadline=None)
@given(st.lists(_atom_sets, max_size=30, unique=True))
def test_subsumed_cover_ids_land_in_a_kept_subset(cover_sets):
    # Row ``i`` holds test ids ``2i`` and ``2i + 1``.  Every atom has a
    # false positive of its own, so no atom dominates another and only
    # subsumption drops cover rows.
    entries = [
        (2 * position + offset, True, atoms)
        for position, atoms in enumerate(cover_sets)
        for offset in (0, 1)
    ]
    atoms = sorted(frozenset().union(*cover_sets))
    entries += [(-1 - atom_id, False, {atom_id}) for atom_id in atoms]
    instance = _build_ilp_instance(make_dataset(entries))
    minimal = {
        atoms for atoms in cover_sets if not any(other < atoms for other in cover_sets)
    }
    assert set(instance.cover_sets) == minimal
    home = Counter()
    for atoms, ids in zip(instance.cover_sets, instance.cover_test_ids):
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
    entries = [
        (test_id, True, atoms)
        for atoms, ids in zip(raw.cover_sets, raw.cover_test_ids)
        for test_id in ids
    ]
    entries += [
        (test_id, False, atoms)
        for (atoms, _weight), ids in zip(raw.fp_sets, raw.fp_test_ids)
        for test_id in ids
    ]
    reduced = _build_ilp_instance(make_dataset(entries))
    home = Counter(test_id for ids in reduced.cover_test_ids for test_id in ids)
    assert home.keys() == atoms_of.keys() and set(home.values()) <= {1}
    for atoms, ids in zip(reduced.cover_sets, reduced.cover_test_ids):
        assert all(atoms <= atoms_of[test_id] for test_id in ids)


def reference_instance(dataset, allowed_atom_ids=None, reduce_dominated=True):
    """:func:`build_ilp_instance` on frozensets, by brute force: every
    reduction of the module docstring as an all-pairs scan."""
    canonical = sorted
    allowed = None if allowed_atom_ids is None else frozenset(allowed_atom_ids)
    cover_groups, uncoverable = {}, []
    for result in dataset.distinguishable:
        atoms = result.distinguishing_atom_ids
        if allowed is not None:
            atoms &= allowed
        if atoms:
            cover_groups.setdefault(atoms, []).append(result.test_id)
        else:
            uncoverable.append(result.test_id)
    candidates = frozenset().union(*cover_groups)
    fp_groups = {}
    for result in dataset.indistinguishable:
        atoms = result.distinguishing_atom_ids & candidates
        if atoms:
            fp_groups.setdefault(atoms, []).append(result.test_id)
    cover_rows = sorted(cover_groups, key=canonical)
    fp_rows = sorted(fp_groups, key=canonical)
    if not reduce_dominated:
        return IlpInstance(
            candidate_atom_ids=tuple(sorted(candidates)),
            cover_sets=tuple(cover_rows),
            fp_sets=tuple((atoms, len(fp_groups[atoms])) for atoms in fp_rows),
            uncoverable_test_ids=tuple(sorted(uncoverable)),
            cover_test_ids=tuple(tuple(cover_groups[atoms]) for atoms in cover_rows),
            fp_test_ids=tuple(tuple(fp_groups[atoms]) for atoms in fp_rows),
        )

    # 4. The smallest atom of each maximal signature.
    representative = {}
    for atom_id in sorted(candidates):
        signature = (
            frozenset(row for row, atoms in enumerate(cover_rows) if atom_id in atoms),
            frozenset(row for row, atoms in enumerate(fp_rows) if atom_id in atoms),
        )
        representative.setdefault(signature, atom_id)
    kept = {
        atom_id
        for (cover_b, fp_b), atom_id in representative.items()
        if not any(
            (cover_a, fp_a) != (cover_b, fp_b) and cover_b <= cover_a and fp_a <= fp_b
            for cover_a, fp_a in representative
        )
    }
    # 5. Merge the cover rows.
    merged = {}
    for atoms in cover_rows:
        merged.setdefault(atoms & kept, []).extend(cover_groups[atoms])
    rows = sorted(merged, key=canonical)
    merged_rows = len(cover_rows) - len(rows)
    # 6. Largest proper subset, the first of equal size; ids to the root.
    parents = [
        max(
            (j for j, other in enumerate(rows) if other < atoms),
            key=lambda j: (len(rows[j]), -j),
            default=-1,
        )
        for atoms in rows
    ]
    ids_of = {i: [] for i, parent in enumerate(parents) if parent < 0}
    for i, atoms in enumerate(rows):
        root = i
        while parents[root] >= 0:
            root = parents[root]
        ids_of[root].extend(merged[atoms])
    subsumed_rows = len(rows) - len(ids_of)
    left = frozenset().union(*(rows[i] for i in ids_of))
    # 7. and 5. on the FP rows.
    fp_merged = {}
    for atoms in fp_rows:
        subsumed_rows += len(atoms & kept) - len(atoms & left)
        if atoms & left:
            fp_merged.setdefault(atoms & left, []).extend(fp_groups[atoms])
    merged_rows += sum(len(atoms & left) for atoms in fp_rows)
    merged_rows -= sum(map(len, fp_merged))
    fp_kept = sorted(fp_merged, key=canonical)
    return IlpInstance(
        candidate_atom_ids=tuple(sorted(left)),
        cover_sets=tuple(rows[i] for i in sorted(ids_of)),
        fp_sets=tuple((atoms, len(fp_merged[atoms])) for atoms in fp_kept),
        uncoverable_test_ids=tuple(sorted(uncoverable)),
        cover_test_ids=tuple(tuple(sorted(ids_of[i])) for i in sorted(ids_of)),
        fp_test_ids=tuple(tuple(sorted(fp_merged[atoms])) for atoms in fp_kept),
        reduced_rows={"merged": merged_rows, "subsumed": subsumed_rows},
    )


class _Formulated(Exception):
    """Raised in place of the first HiGHS solve, once it is recorded."""


def problem_arrays(instance):
    """The arrays :class:`ScipyMilpSolver` hands to HiGHS first for
    ``instance``, or ``None`` when it has no cover rows."""
    recorded = {}

    def record(**kwargs):
        recorded.update(kwargs)
        raise _Formulated

    with mock.patch.object(highs, "solve", record):
        try:
            ScipyMilpSolver(time_limit=None).solve(instance)
        except _Formulated:
            pass
    keys = ("c", "start", "index", "value", "row_lower", "row_upper")
    return {key: recorded[key].tolist() for key in keys} if recorded else None


def assert_matches_reference(dataset, allowed=None):
    for reduce_dominated in (False, True):
        built = _build_ilp_instance(dataset, allowed, reduce_dominated)
        reference = reference_instance(dataset, allowed, reduce_dominated)
        assert built == reference
        # ``reference`` has no packed rows: the solver packs its atom sets.
        assert problem_arrays(built) == problem_arrays(reference)


@st.composite
def _datasets(draw):
    """Results in shuffled order, over atoms across the word boundaries:
    mixed, all indistinguishable, or all with empty atom sets."""
    kind = draw(st.sampled_from(["mixed", "indistinguishable", "empty"]))
    entries = draw(
        st.lists(
            st.tuples(st.booleans(), st.frozensets(_atom_ids, max_size=6)),
            max_size=40,
        )
    )
    if kind == "indistinguishable":
        entries = [(False, atoms) for _dist, atoms in entries]
    elif kind == "empty":
        entries = [(dist, frozenset()) for dist, _atoms in entries]
    test_ids = draw(st.permutations(range(len(entries))))
    return make_dataset(
        [(test_id, dist, atoms) for test_id, (dist, atoms) in zip(test_ids, entries)]
    )


_allowed = st.one_of(
    st.none(), st.frozensets(_atom_ids), st.frozensets(st.integers(0, 1000))
)


@settings(max_examples=150, deadline=None)
@given(_datasets(), _allowed, _pair_chunks)
def test_packed_builder_matches_the_frozenset_reference(dataset, allowed, chunk):
    """The instance, and the arrays HiGHS receives, equal those of a
    brute-force frozenset builder, over any subset-query chunking."""
    with pair_chunk(chunk):
        assert_matches_reference(dataset, allowed)


def test_large_corpus_matches_the_frozenset_reference():
    """A corpus whose subset queries span several chunks of pairs: many
    FP sets over a few dozen atoms, so their buckets are large."""
    rng = random.Random(3)
    hot = rng.sample(range(TEMPLATE_MAX_ATOM + 1), 48)
    entries = []
    for test_id in range(4000):
        if rng.random() < 0.2:
            atoms = rng.sample(range(TEMPLATE_MAX_ATOM + 1), rng.randint(0, 30))
            entries.append((test_id, True, set(atoms + hot[: rng.randint(0, 3)])))
        else:
            entries.append((test_id, False, set(rng.sample(hot, rng.randint(1, 9)))))
    dataset = make_dataset(entries)
    checks = []
    contained = ilp._contained

    def counted(*args):
        checks.append(len(args[1]))
        return contained(*args)

    with mock.patch.object(ilp, "_contained", counted):
        assert_matches_reference(dataset)
    assert max(checks) <= 2 * ilp.PAIR_CHUNK
    assert sum(check >= ilp.PAIR_CHUNK // 2 for check in checks) >= 3
