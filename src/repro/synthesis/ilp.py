"""Construction of the synthesis ILP (§III-D).

Variables
    ``s_A`` for every candidate atom (selected or not), ``c_t`` for
    every attacker-indistinguishable test case (forced to 1 when some
    selected atom distinguishes ``t`` — a false positive).

Objective
    ``min Σ_t c_t`` (solvers break ties toward fewer atoms).

Constraints
    ``Σ_{A ∈ distinguishing(t)} s_A ≥ 1`` per attacker-distinguishable
    test case ``t``; ``s_A ≤ c_t`` per indistinguishable ``t`` and
    ``A ∈ distinguishing(t)``.

Every reduction below keeps the set of optimal contracts under the
``(false positives, atom count)`` order, so the optimum does not
depend on which of them ran.  :func:`build_ilp_instance` always applies
the first three:

1. Atoms that distinguish no attacker-distinguishable test case are
   never selected by an optimal solution (they cover nothing and can
   only add false positives), so only atoms occurring in some coverage
   constraint become ILP variables.
2. Attacker-distinguishable test cases with identical (restricted)
   distinguishing sets yield identical constraints and are deduplicated.
3. Indistinguishable test cases with identical candidate intersections
   are merged into one ``c_t`` with an integer weight.

Under ``reduce_dominated`` (the default), :func:`eliminate_dominated_atoms`
continues:

4. Dominated atoms are dropped: when atom ``a`` covers every constraint
   ``b`` covers and triggers a subset of ``b``'s false-positive sets,
   swapping ``b`` for ``a`` never adds a false positive or an atom.
   Such an ``a`` lies in every cover row of ``b``, so only the atoms of
   ``b``'s smallest cover row are compared with it.  Strict dominance
   over distinct signatures is a partial order, so the kept atoms (the
   maximal signatures) do not depend on the order of the scan.
5. The remaining rows are intersected with the kept atoms, which makes
   some of them equal again; equal cover sets and equal FP sets merge
   (test ids concatenate, FP weights add), as in 2 and 3.
6. A cover set that is a proper superset of another is implied by it
   (whatever hits the subset hits the superset) and is dropped.  Each
   row's parent is its largest proper subset among the cover rows
   (:func:`largest_proper_subsets`, on a :class:`SubsetIndex`): a row
   with a parent is dropped, and its test ids move to the root of its
   parent chain, a kept row.
7. Atoms left in no cover row cover nothing and are dropped like the
   atoms of 1; FP sets are intersected with the atoms that remain.

Solver backends shrink the formulation further without changing the
instance (see :class:`repro.synthesis.solvers.ScipyMilpSolver`).

Test cases whose restricted distinguishing set is *empty* cannot be
covered by any contract from the (restricted) template; they are
excluded from the constraints and reported as ``uncoverable`` (they
count as false negatives in the sensitivity metrics, which is how the
restricted templates of Fig. 2/3 lose sensitivity).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.evaluation.results import EvaluationDataset


@dataclass
class IlpInstance:
    """A reduced synthesis problem ready for a solver backend."""

    #: Sorted candidate atom ids (the ``s_A`` variables).
    candidate_atom_ids: Tuple[int, ...]
    #: Deduplicated coverage constraints over candidate atoms.
    cover_sets: Tuple[FrozenSet[int], ...]
    #: Deduplicated false-positive sets with multiplicities: selecting
    #: any atom of ``fp_sets[i][0]`` costs ``fp_sets[i][1]``.
    fp_sets: Tuple[Tuple[FrozenSet[int], int], ...]
    #: Attacker-distinguishable cases with no candidate atom at all.
    uncoverable_test_ids: Tuple[int, ...]
    #: Test ids behind each cover set (diagnostics).
    cover_test_ids: Tuple[Tuple[int, ...], ...] = field(default=())
    #: Test ids behind each fp set (diagnostics / FP reporting).
    fp_test_ids: Tuple[Tuple[int, ...], ...] = field(default=())
    #: Rows of the plain formulation (one per cover set, one per atom
    #: of each fp set) removed by each reduction after dominance
    #: elimination: ``"merged"`` and ``"subsumed"`` (diagnostics).
    reduced_rows: Dict[str, int] = field(default_factory=dict)

    @property
    def atom_count(self) -> int:
        return len(self.candidate_atom_ids)

    @property
    def total_fp_weight(self) -> int:
        return sum(weight for _atoms, weight in self.fp_sets)

    def false_positive_weight(self, selection: Iterable[int]) -> int:
        """Objective value of ``selection``: the number of
        indistinguishable test cases it distinguishes."""
        selected = frozenset(selection)
        return sum(
            weight
            for atoms, weight in self.fp_sets
            if not atoms.isdisjoint(selected)
        )

    def covers_all(self, selection: Iterable[int]) -> bool:
        selected = frozenset(selection)
        return all(not atoms.isdisjoint(selected) for atoms in self.cover_sets)

    def false_positive_test_ids(self, selection: Iterable[int]) -> List[int]:
        selected = frozenset(selection)
        ids: List[int] = []
        for (atoms, _weight), test_ids in zip(self.fp_sets, self.fp_test_ids):
            if not atoms.isdisjoint(selected):
                ids.extend(test_ids)
        return sorted(ids)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "IlpInstance(%d atoms, %d cover sets, %d fp sets)" % (
            self.atom_count,
            len(self.cover_sets),
            len(self.fp_sets),
        )


def build_ilp_instance(
    dataset: EvaluationDataset,
    allowed_atom_ids: Optional[Iterable[int]] = None,
    reduce_dominated: bool = True,
) -> IlpInstance:
    """Reduce ``dataset`` to an :class:`IlpInstance`.

    ``allowed_atom_ids`` restricts the template (e.g. to the IL+RL+ML
    base families for the Fig. 2 comparison); ``None`` allows every
    atom mentioned by the dataset.  ``reduce_dominated`` additionally
    removes dominated atoms, subsumed cover rows and the atoms they
    orphan (see :func:`eliminate_dominated_atoms`), keeping the optimum.
    """
    allowed = None if allowed_atom_ids is None else frozenset(allowed_atom_ids)

    cover_groups: Dict[FrozenSet[int], List[int]] = {}
    uncoverable: List[int] = []
    for result in dataset.distinguishable:
        atoms = result.distinguishing_atom_ids
        if allowed is not None:
            atoms = atoms & allowed
        if not atoms:
            uncoverable.append(result.test_id)
            continue
        cover_groups.setdefault(atoms, []).append(result.test_id)

    candidates = frozenset().union(*cover_groups) if cover_groups else frozenset()

    fp_groups: Dict[FrozenSet[int], List[int]] = {}
    for result in dataset.indistinguishable:
        atoms = result.distinguishing_atom_ids & candidates
        if atoms:
            fp_groups.setdefault(atoms, []).append(result.test_id)

    cover_items = sorted(cover_groups.items(), key=lambda item: sorted(item[0]))
    fp_items = sorted(fp_groups.items(), key=lambda item: sorted(item[0]))
    instance = IlpInstance(
        candidate_atom_ids=tuple(sorted(candidates)),
        cover_sets=tuple(atoms for atoms, _ids in cover_items),
        fp_sets=tuple((atoms, len(ids)) for atoms, ids in fp_items),
        uncoverable_test_ids=tuple(sorted(uncoverable)),
        cover_test_ids=tuple(tuple(ids) for _atoms, ids in cover_items),
        fp_test_ids=tuple(tuple(ids) for _atoms, ids in fp_items),
    )
    if reduce_dominated:
        instance = eliminate_dominated_atoms(instance)
    return instance


def eliminate_dominated_atoms(instance: IlpInstance) -> IlpInstance:
    """Remove candidate atoms dominated by another candidate.

    Atom ``a`` dominates ``b`` when ``a`` covers every coverage
    constraint ``b`` covers while triggering a subset of ``b``'s
    false-positive sets.  Any optimal selection containing ``b`` stays
    optimal after substituting ``a``, so dropping ``b`` preserves the
    optimum (ties are broken toward the smaller atom id, keeping the
    reduction deterministic and irreflexive).  This typically shrinks
    the candidate set by an order of magnitude because sibling atoms
    (e.g. ``RAW_RS1_1`` .. ``RAW_RS1_4``) often have identical
    signatures on a finite test set.

    The rows are then intersected with the kept atoms, merged where
    equal, cleared of subsumed cover sets and of the atoms those left
    uncovered (reductions 5-7 of the module docstring).
    """
    kept = undominated_atoms(instance)
    cover_items = _merge_rows(
        (atoms & kept, 1, ids)
        for atoms, ids in zip_longest(instance.cover_sets, instance.cover_test_ids, fillvalue=())
    )
    if any(not atoms for atoms, _count, _ids in cover_items):  # pragma: no cover - invariant
        raise AssertionError("dominance reduction emptied a coverage constraint")
    merged_rows = len(instance.cover_sets) - len(cover_items)
    subsumed_rows = len(cover_items)
    cover_items = drop_subsumed_cover_sets(cover_items)
    subsumed_rows -= len(cover_items)
    atoms_left = frozenset().union(*(atoms for atoms, _count, _ids in cover_items))

    fp_rows = []
    for (atoms, weight), ids in zip_longest(instance.fp_sets, instance.fp_test_ids, fillvalue=()):
        left = atoms & atoms_left
        # The rows of atoms that only a subsumed cover row needed.
        subsumed_rows += len(atoms & kept) - len(left)
        if left:
            fp_rows.append((left, weight, ids))
    fp_items = _merge_rows(fp_rows)
    merged_rows += sum(len(atoms) for atoms, _w, _ids in fp_rows) - sum(
        len(atoms) for atoms, _w, _ids in fp_items
    )
    return IlpInstance(
        candidate_atom_ids=tuple(sorted(atoms_left)),
        cover_sets=tuple(atoms for atoms, _count, _ids in cover_items),
        fp_sets=tuple((atoms, weight) for atoms, weight, _ids in fp_items),
        uncoverable_test_ids=instance.uncoverable_test_ids,
        cover_test_ids=tuple(ids for _atoms, _count, ids in cover_items),
        fp_test_ids=tuple(ids for _atoms, _weight, ids in fp_items),
        reduced_rows={"merged": merged_rows, "subsumed": subsumed_rows},
    )


def undominated_atoms(instance: IlpInstance) -> FrozenSet[int]:
    """The candidate atoms with a maximal ``(cover rows, FP sets)``
    signature, the smallest id standing for each distinct signature
    (reduction 4 of the module docstring)."""
    cover_mask, fp_mask = atom_masks(instance)

    # Deduplicate identical signatures first (the candidate ids are
    # sorted, so the smallest id stands for each).
    by_signature: Dict[Tuple[int, int], int] = {}
    for atom_id in instance.candidate_atom_ids:
        by_signature.setdefault((cover_mask[atom_id], fp_mask[atom_id]), atom_id)
    survivors = frozenset(by_signature.values())

    # Strict dominance among the distinct signatures: a dominator of b
    # lies in every cover row of b (each candidate lies in one, by
    # reduction 1), so b's smallest row holds them all.
    smallest_row: Dict[int, FrozenSet[int]] = {}
    for atoms in sorted(instance.cover_sets, key=len):
        for atom_id in atoms:
            smallest_row.setdefault(atom_id, atoms)
    dominated = set()
    for b in survivors:
        cover_b, fp_b = cover_mask[b], fp_mask[b]
        for a in smallest_row[b]:
            if a == b or a not in survivors or a in dominated:
                continue
            if cover_b & ~cover_mask[a] == 0 and fp_mask[a] & ~fp_b == 0:
                dominated.add(b)
                break
    return survivors.difference(dominated)


_Row = Tuple[FrozenSet[int], int, Tuple[int, ...]]


def _merge_rows(rows: Iterable[Tuple[FrozenSet[int], int, Sequence[int]]]) -> List[_Row]:
    """Merge ``(atoms, weight, test_ids)`` rows with equal atom sets
    (weights add, test ids concatenate), in canonical atom order."""
    merged: Dict[FrozenSet[int], Tuple[int, List[int]]] = {}
    for atoms, weight, ids in rows:
        total, merged_ids = merged.get(atoms, (0, []))
        merged_ids.extend(ids)
        merged[atoms] = (total + weight, merged_ids)
    return [
        (atoms, weight, tuple(sorted(ids)))
        for atoms, (weight, ids) in sorted(merged.items(), key=lambda item: sorted(item[0]))
    ]


def atom_masks(instance: IlpInstance) -> Tuple[Dict[int, int], Dict[int, int]]:
    """Per candidate atom, the bitmask of the cover rows it hits and the
    bitmask of the FP sets it triggers (bit ``i`` is row ``i``)."""

    def masks(rows: Iterable[FrozenSet[int]]) -> Dict[int, int]:
        mask = dict.fromkeys(instance.candidate_atom_ids, 0)
        for position, atoms in enumerate(rows):
            bit = 1 << position
            for atom_id in atoms:
                mask[atom_id] |= bit
        return mask

    fp_sets = (atoms for atoms, _weight in instance.fp_sets)
    return masks(instance.cover_sets), masks(fp_sets)


class SubsetIndex:
    """Non-empty atom sets, each filed under its rarest atom: a stored
    subset of a query contains its key, so a query probes only the
    buckets of its own atoms, and rare keys keep those buckets small."""

    def __init__(self, sets: Sequence[FrozenSet[int]]):
        self.sets = sets
        frequency = Counter(atom_id for atoms in sets for atom_id in atoms)
        self._buckets: Dict[int, List[int]] = {}
        for position, atoms in enumerate(sets):
            rarest = min(atoms, key=lambda atom_id: (frequency[atom_id], atom_id))
            self._buckets.setdefault(rarest, []).append(position)

    def subsets(self, atoms: FrozenSet[int]) -> Iterator[int]:
        """The positions of the stored sets contained in ``atoms``
        (itself included, if stored), in no particular order."""
        for atom_id in atoms:
            for position in self._buckets.get(atom_id, ()):
                if self.sets[position] <= atoms:
                    yield position


def largest_proper_subsets(sets: Sequence[FrozenSet[int]]) -> List[int]:
    """For each of the non-empty ``sets``, the position of its largest
    proper subset among them, or -1.  Ties go to the lowest position."""
    index = SubsetIndex(sets)
    sizes = [len(atoms) for atoms in sets]
    return [
        max(
            (position for position in index.subsets(atoms) if sizes[position] < size),
            key=lambda position: (sizes[position], -position),
            default=-1,
        )
        for atoms, size in zip(sets, sizes)
    ]


def drop_subsumed_cover_sets(cover_items: List[_Row]) -> List[_Row]:
    """Drop the (distinct) cover sets that are proper supersets of
    another.  A set with a parent (its largest proper subset) is
    dropped; its test ids join the root of its parent chain, which has
    no proper subset and is kept.
    """
    parents = largest_proper_subsets([atoms for atoms, _count, _ids in cover_items])
    test_ids = [list(ids) for _atoms, _count, ids in cover_items]
    for position, parent in enumerate(parents):
        if parent >= 0:
            while parents[parent] >= 0:
                parent = parents[parent]
            test_ids[parent].extend(test_ids[position])
    return _merge_rows(
        (atoms, count, test_ids[position])
        for position, (atoms, count, _ids) in enumerate(cover_items)
        if parents[position] < 0
    )
