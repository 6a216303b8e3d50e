"""Tests for :func:`eliminate_redundant_atoms`, the loss-free clean-up
every solver path applies to its selection before reporting it."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.synthesis.ilp import IlpInstance
from repro.synthesis.solvers import eliminate_redundant_atoms


def _instance(cover_sets, fp_sets=()):
    cover = tuple(frozenset(atoms) for atoms in cover_sets)
    fp = tuple((frozenset(atoms), weight) for atoms, weight in fp_sets)
    atoms = frozenset().union(*cover, *(atoms for atoms, _weight in fp))
    return IlpInstance(
        candidate_atom_ids=tuple(sorted(atoms)),
        cover_sets=cover,
        fp_sets=fp,
        uncoverable_test_ids=(),
    )


def _fp(instance, selection):
    selected = frozenset(selection)
    return sum(
        weight for atoms, weight in instance.fp_sets if not atoms.isdisjoint(selected)
    )


def test_subsumed_atom_is_dropped():
    instance = _instance([{1, 2}, {1, 3}])
    assert eliminate_redundant_atoms(instance, [1, 2, 3]) == [1]


def test_fp_expensive_redundancy_goes_first():
    """Atoms 1 and 2 each cover every case; the one that costs false
    positives is the one removed."""
    instance = _instance([{1, 2}], fp_sets=[({1}, 3)])
    assert eliminate_redundant_atoms(instance, [1, 2]) == [2]
    instance = _instance([{1, 2}], fp_sets=[({2}, 3)])
    assert eliminate_redundant_atoms(instance, [1, 2]) == [1]


def test_equal_cost_drops_the_narrower_atom():
    instance = _instance([{1, 2}, {2}, {1, 2, 3}])
    assert eliminate_redundant_atoms(instance, [1, 2]) == [2]


def test_equal_cost_and_coverage_drops_the_smaller_id():
    instance = _instance([{4, 7}])
    assert eliminate_redundant_atoms(instance, [7, 4]) == [7]


@pytest.mark.parametrize("selection", [[], [5]])
def test_needed_atoms_are_kept(selection):
    instance = _instance([{5}] if selection else [])
    assert eliminate_redundant_atoms(instance, selection) == selection


def test_last_atom_stays_even_without_cover_rows():
    """With nothing to cover, one atom is still reported: the function
    never empties a selection."""
    instance = _instance([], fp_sets=[({1}, 1), ({2}, 1)])
    assert len(eliminate_redundant_atoms(instance, [1, 2])) == 1


ATOMS = st.integers(min_value=0, max_value=9)


@st.composite
def instances(draw):
    cover = draw(
        st.lists(st.frozensets(ATOMS, min_size=1, max_size=4), min_size=1, max_size=8)
    )
    fp = draw(
        st.lists(
            st.tuples(
                st.frozensets(ATOMS, min_size=1, max_size=4),
                st.integers(min_value=1, max_value=5),
            ),
            max_size=6,
        )
    )
    instance = _instance(cover, fp)
    extra = draw(st.lists(st.sampled_from(instance.candidate_atom_ids), max_size=5))
    # Every covering selection: one atom per row plus arbitrary extras.
    selection = {draw(st.sampled_from(sorted(atoms))) for atoms in cover}
    return instance, sorted(selection | set(extra))


@given(instances())
def test_result_covers_everything_at_no_more_fp(case):
    instance, selection = case
    kept = eliminate_redundant_atoms(instance, selection)
    assert set(kept) <= set(selection)
    assert instance.covers_all(kept)
    assert _fp(instance, kept) <= _fp(instance, selection)


@given(instances())
def test_result_is_irredundant(case):
    """No kept atom can be removed without uncovering some case."""
    instance, selection = case
    kept = eliminate_redundant_atoms(instance, selection)
    for atom_id in kept:
        assert not instance.covers_all([other for other in kept if other != atom_id])
