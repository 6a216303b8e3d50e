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

Representation
    Every atom set is a row of ``uint64`` words, bit ``i % 64`` of word
    ``i // 64`` standing for atom ``i`` (:func:`pack_bits`).  The
    builder packs each result's set once and stays on packed rows to
    the end; only the instance's own atom sets are built as frozensets.
    Equal rows are grouped with ``np.unique`` on their bytes.  The
    distinct rows an instance keeps are then sorted into *canonical
    order*, the lexicographic order of their sorted atom ids
    (:func:`_canonical_groups`), so the instance's rows, and the
    formulation built from them, do not depend on the order of the
    results.  Every subset question is one vectorized query,
    :func:`subset_pairs`, which files each stored row under its rarest
    bit.  The instance keeps its rows packed over candidate positions
    (:meth:`IlpInstance.packed`) for the solver backends that formulate
    on them.

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

Under ``reduce_dominated`` (the default) it continues:

4. Dominated atoms are dropped: when atom ``a`` covers every constraint
   ``b`` covers and triggers a subset of ``b``'s false-positive sets,
   swapping ``b`` for ``a`` never adds a false positive or an atom.
   The smallest atom stands for each distinct signature (its packed
   cover-row and FP-row columns); ``a`` dominates ``b`` when ``b``'s
   cover column is a subset of ``a``'s and ``a``'s FP column a subset
   of ``b``'s.  Strict dominance over distinct signatures is a partial
   order, so the kept atoms (the maximal signatures) are well defined
   (:func:`undominated_atoms`).
5. The remaining rows are intersected with the kept atoms, which makes
   some of them equal again; equal cover sets and equal FP sets merge
   (test ids concatenate, FP weights add), as in 2 and 3.
6. A cover set that is a proper superset of another is implied by it
   (whatever hits the subset hits the superset) and is dropped.  Each
   row's parent is its largest proper subset among the cover rows
   (:func:`largest_proper_subsets`): a row with a parent is dropped,
   and its test ids move to the root of its parent chain, a kept row.
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

from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

import numpy as np

from repro.evaluation.results import EvaluationDataset

#: Bits per word of a packed row.
WORD_BITS = 64

#: :func:`subset_pairs` checks about this many candidate pairs at a
#: time, which bounds the index arrays it builds whatever the number
#: of candidates.
PAIR_CHUNK = 1 << 15

_BYTE_POPCOUNT = np.array([bin(byte).count("1") for byte in range(256)], np.uint8)
#: Row ``v``: the set bits of byte value ``v``, ascending (then zeros).
_BYTE_BITS = np.array(
    [
        ([bit for bit in range(8) if byte >> bit & 1] + [0] * 8)[:8]
        for byte in range(256)
    ],
    dtype=np.intp,
)
# Masks of the bit-parallel popcount.
_M1, _M2, _M4, _H01 = (
    np.uint64(0x5555555555555555),
    np.uint64(0x3333333333333333),
    np.uint64(0x0F0F0F0F0F0F0F0F),
    np.uint64(0x0101010101010101),
)


def _words(bit_count: int) -> int:
    """Words of a row of ``bit_count`` bits (at least one)."""
    return max(1, -(-bit_count // WORD_BITS))


def pack_bits(rows, bits, row_count: int, words: int) -> np.ndarray:
    """A ``(row_count, words)`` ``uint64`` array with bit ``bits[i]`` of
    row ``rows[i]`` set.  The ``(row, bit)`` pairs must be distinct."""
    rows = np.asarray(rows, dtype=np.intp)
    bits = np.asarray(bits, dtype=np.intp)
    # Per 32-bit half word, a sum of distinct powers of two below 2**32:
    # exact in float64, and equal to their bitwise or.
    halves = np.bincount(
        rows * (2 * words) + (bits >> 5),
        weights=np.ldexp(1.0, bits & 31),
        minlength=row_count * 2 * words,
    ).astype(np.uint64)
    halves = halves.reshape(row_count, words, 2)
    return halves[..., 0] | (halves[..., 1] << np.uint64(32))


def _bytes(rows: np.ndarray) -> np.ndarray:
    """The little-endian bytes of each row: byte ``j`` holds bits
    ``8j`` to ``8j + 7``."""
    rows = np.ascontiguousarray(rows, dtype="<u8")
    return rows.view(np.uint8).reshape(len(rows), 8 * rows.shape[1])


def unpack_bits(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The ``(row, bit)`` positions of the set bits of ``rows``, by row
    and then by bit."""
    data = _bytes(rows)
    row, byte = np.nonzero(data)
    values = data[row, byte]
    counts = _BYTE_POPCOUNT[values].astype(np.intp)
    starts = np.cumsum(counts) - counts
    rank = np.arange(int(counts.sum())) - np.repeat(starts, counts)
    bits = np.repeat(8 * byte, counts) + _BYTE_BITS[np.repeat(values, counts), rank]
    return np.repeat(row, counts), bits


def popcounts(rows: np.ndarray) -> np.ndarray:
    """The number of set bits of each row.

    Bit-parallel on the words: a lookup in :data:`_BYTE_POPCOUNT` would
    index with every byte of ``rows`` widened to ``intp``, eight times
    the rows' memory."""
    counts = rows - ((rows >> np.uint64(1)) & _M1)
    counts = (counts & _M2) + ((counts >> np.uint64(2)) & _M2)
    counts = (counts + (counts >> np.uint64(4))) & _M4
    counts = (counts * _H01) >> np.uint64(56)
    return counts.sum(axis=1, dtype=np.intp)


def _union(rows: np.ndarray) -> np.ndarray:
    return np.bitwise_or.reduce(rows, axis=0)


def _transpose(rows: np.ndarray, bit_count: int) -> np.ndarray:
    """The columns of ``rows`` as packed rows: row ``b`` of the result
    holds bit ``r`` when row ``r`` of ``rows`` holds bit ``b``."""
    row, bit = unpack_bits(rows)
    return pack_bits(bit, row, bit_count, _words(len(rows)))


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque byte string per row, for grouping equal rows."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()


def _groups(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct ``rows`` in the order of their bytes, and the
    position among them of each row."""
    if not len(rows):
        return rows, np.zeros(0, np.intp)
    _keys, first, inverse = np.unique(
        _row_keys(rows), return_index=True, return_inverse=True
    )
    return rows[first], inverse.ravel()


def _canonical_groups(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct ``rows`` in canonical order, and the position among
    them of each row.

    A row's sort key is its sorted atom ids plus one, as big-endian
    numbers padded with zeros to a common length, so that comparing
    keys byte by byte compares the id sequences, a proper prefix
    first."""
    distinct, position = _groups(rows)
    row, bit = unpack_bits(distinct)
    sizes = np.bincount(row, minlength=len(distinct))
    starts = np.cumsum(sizes) - sizes
    digit = np.dtype(np.min_scalar_type(distinct.shape[1] * WORD_BITS))
    width = max(1, sizes.max(initial=0))
    keys = np.zeros((len(distinct), width), digit.newbyteorder(">"))
    keys[row, np.arange(len(row)) - starts[row]] = bit + 1
    order = np.argsort(_row_keys(keys), kind="stable")
    rank = np.empty(len(order), np.intp)
    rank[order] = np.arange(len(order))
    return distinct[order], rank[position]


def _signed(rows: np.ndarray) -> np.ndarray:
    """``rows`` behind one more word, their signature: the or of their
    words, each rotated left by seven bits per word index.  A subset's
    signature is a subset of the row's, so :func:`_contained` rules out
    most non-subsets on that first word.  Stored by column, so that
    each word is one contiguous array."""
    signature = rows[:, 0].copy()
    for word in range(1, rows.shape[1]):
        turn = np.uint64(7 * word % WORD_BITS)
        column = rows[:, word]
        signature |= (column << turn) | (column >> (np.uint64(WORD_BITS) - turn))
    return np.asfortranarray(np.column_stack([signature, rows]))


def _contained(inner, inner_index, outer, outer_index) -> np.ndarray:
    """Whether ``inner[i] ⊆ outer[o]`` for each pair of the index
    arrays, checked a word at a time over the pairs still in question."""
    contained = np.zeros(len(inner_index), dtype=bool)
    live = np.arange(len(inner_index))
    for inner_word, outer_word in zip(inner.T, outer.T):
        hold = (inner_word[inner_index] & ~outer_word[outer_index]) == 0
        live = live[hold]
        inner_index, outer_index = inner_index[hold], outer_index[hold]
    contained[live] = True
    return contained


def subset_pairs(
    queries: np.ndarray, stored: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Every pair ``(q, s)`` with ``stored[s] ⊆ queries[q]``, for
    non-empty ``stored`` rows, by query.

    Each stored row is filed under its rarest bit (held by the fewest
    stored rows, the lower bit on a tie).  A stored subset of a query
    holds its key, so each query bit probes only that bit's bucket, and
    rare keys keep the buckets small.  The candidate pairs are checked
    about :data:`PAIR_CHUNK` at a time, signature word first
    (:func:`_signed`)."""
    empty = (np.zeros(0, np.intp), np.zeros(0, np.intp))
    if not len(stored) or not len(queries):
        return empty
    bit_count = stored.shape[1] * WORD_BITS
    stored_rows, stored_bits = unpack_bits(stored)
    starts = np.flatnonzero(np.diff(stored_rows, prepend=-1))
    if len(starts) != len(stored):
        raise ValueError("subset_pairs needs non-empty stored rows")
    frequency = np.bincount(stored_bits, minlength=bit_count)
    keys = frequency[stored_bits] * bit_count + stored_bits
    rarest = np.minimum.reduceat(keys, starts) % bit_count
    bucket = np.argsort(rarest, kind="stable")
    bucket_size = np.bincount(rarest, minlength=bit_count)
    bucket_start = np.cumsum(bucket_size) - bucket_size

    signed = _signed(stored)
    if queries is stored:
        query_rows, query_bits = stored_rows, stored_bits
        signed_queries = signed
    else:
        query_rows, query_bits = unpack_bits(queries)
        signed_queries = _signed(queries)
    if not len(query_bits):
        return empty
    probes = bucket_size[query_bits]
    ends = np.cumsum(probes)
    cuts = np.searchsorted(ends, np.arange(PAIR_CHUNK, ends[-1], PAIR_CHUNK))
    bounds = sorted({0, len(probes), *cuts.tolist()})
    found_queries, found_stored = [empty[0]], [empty[1]]
    for low, high in zip(bounds[:-1], bounds[1:]):
        counts = probes[low:high]
        offsets = np.cumsum(counts) - counts
        within = np.arange(int(counts.sum())) - np.repeat(offsets, counts)
        query = np.repeat(query_rows[low:high], counts)
        first = np.repeat(bucket_start[query_bits[low:high]], counts)
        candidate = bucket[first + within]
        hit = _contained(signed, candidate, signed_queries, query)
        found_queries.append(query[hit])
        found_stored.append(candidate[hit])
    return np.concatenate(found_queries), np.concatenate(found_stored)


def largest_proper_subsets(rows: np.ndarray) -> np.ndarray:
    """For each of the non-empty ``rows``, the position of its largest
    proper subset among them, or -1.  Ties go to the lowest position."""
    query, stored = subset_pairs(rows, rows)
    sizes = popcounts(rows)
    proper = sizes[stored] < sizes[query]
    query, stored = query[proper], stored[proper]
    parents = np.full(len(rows), -1, dtype=np.intp)
    if len(query):
        # The pairs come by query: per query, the largest, then first, subset.
        rank = sizes[stored] * len(rows) - stored
        starts = np.flatnonzero(np.diff(query, prepend=-1))
        best = np.maximum.reduceat(rank, starts)
        parents[query[starts]] = -best % len(rows)
    return parents


def undominated_atoms(cover: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """The bit mask of the atoms with a maximal ``(cover rows, FP
    rows)`` signature among the atoms of the ``cover`` rows, the
    smallest atom standing for each distinct signature (reduction 4 of
    the module docstring).  ``cover`` and ``fp`` are packed rows of the
    same width."""
    bit_count = cover.shape[1] * WORD_BITS
    cover_columns = _transpose(cover, bit_count)
    fp_columns = _transpose(fp, bit_count)
    atoms = np.flatnonzero(cover_columns.any(axis=1))
    signatures = np.concatenate([cover_columns[atoms], fp_columns[atoms]], axis=1)
    _keys, first = np.unique(_row_keys(signatures), return_index=True)
    atoms = atoms[np.sort(first)]
    cover_columns, fp_columns = cover_columns[atoms], fp_columns[atoms]
    # ``a`` dominates ``b``: b's cover column is a subset of a's, and
    # a's FP column a subset of b's.  Distinct signatures, so strictly.
    a, b = subset_pairs(cover_columns, cover_columns)
    a, b = a[a != b], b[a != b]
    dominated = np.zeros(len(atoms), dtype=bool)
    fp_columns = _signed(fp_columns)
    dominated[b[_contained(fp_columns, a, fp_columns, b)]] = True
    kept = atoms[~dominated]
    return pack_bits(np.zeros(len(kept), np.intp), kept, 1, cover.shape[1])[0]


@dataclass(frozen=True)
class PackedRows:
    """An instance's rows packed over candidate positions: bit ``j`` of
    a row stands for ``candidate_atom_ids[j]``."""

    #: One row per cover set, in the instance's order.
    cover: np.ndarray
    #: One row per FP set, in the instance's order.
    fp: np.ndarray
    #: The weight of each FP set.
    fp_weights: np.ndarray


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
    _packed: Optional[PackedRows] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def atom_count(self) -> int:
        return len(self.candidate_atom_ids)

    @property
    def total_fp_weight(self) -> int:
        return sum(weight for _atoms, weight in self.fp_sets)

    def packed(self) -> PackedRows:
        """The rows packed over candidate positions: the builder's own,
        or packed from the atom sets of an instance built otherwise."""
        if self._packed is None:
            index = {atom_id: j for j, atom_id in enumerate(self.candidate_atom_ids)}
            words = _words(len(index))

            def pack(sets) -> np.ndarray:
                rows = np.repeat(np.arange(len(sets)), [len(atoms) for atoms in sets])
                bits = [index[atom_id] for atoms in sets for atom_id in atoms]
                return pack_bits(rows, bits, len(sets), words)

            self._packed = PackedRows(
                cover=pack(self.cover_sets),
                fp=pack([atoms for atoms, _weight in self.fp_sets]),
                fp_weights=np.array(
                    [weight for _atoms, weight in self.fp_sets], dtype=np.int64
                ),
            )
        return self._packed

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
    orphan (reductions 4-7 of the module docstring), keeping the
    optimum.
    """
    results = list(dataset)
    count = len(results)
    atom_sets = [result.distinguishing_atom_ids for result in results]
    sizes = np.fromiter(map(len, atom_sets), dtype=np.intp, count=count)
    atoms = np.fromiter(
        chain.from_iterable(atom_sets), dtype=np.intp, count=int(sizes.sum())
    )
    distinguishable = np.fromiter(
        (result.attacker_distinguishable for result in results), dtype=bool, count=count
    )
    test_ids = np.fromiter(
        (result.test_id for result in results), dtype=np.int64, count=count
    )
    words = _words(int(atoms.max()) + 1 if len(atoms) else 0)
    rows = pack_bits(np.repeat(np.arange(count), sizes), atoms, count, words)
    if allowed_atom_ids is not None:
        allowed = np.fromiter(set(allowed_atom_ids), dtype=np.intp)
        allowed = allowed[allowed < words * WORD_BITS]
        mask = pack_bits(np.zeros(len(allowed), np.intp), allowed, 1, words)[0]
        rows[distinguishable] &= mask

    # The reductions order the rows they keep themselves.
    group = _groups if reduce_dominated else _canonical_groups
    coverable = rows.any(axis=1)
    uncoverable = np.sort(test_ids[distinguishable & ~coverable])
    covered = distinguishable & coverable
    cover, cover_of = group(rows[covered])
    candidates = _union(cover)
    fp_rows = rows[~distinguishable] & candidates
    triggered = fp_rows.any(axis=1)
    fp, fp_of = group(fp_rows[triggered])
    fp_weights = np.bincount(fp_of, minlength=len(fp))
    cover_ids, fp_ids = test_ids[covered], test_ids[~distinguishable][triggered]
    if not reduce_dominated:
        return _instance(
            cover,
            _ids_by_row(cover_of, cover_ids, len(cover), by_id=False),
            fp,
            fp_weights,
            _ids_by_row(fp_of, fp_ids, len(fp), by_id=False),
            uncoverable,
            {},
        )

    # Reductions 4 and 5 on the cover rows.
    kept = undominated_atoms(cover, fp)
    merged_cover, to_merged = _canonical_groups(cover & kept)
    if not merged_cover.any(axis=1).all():  # pragma: no cover - invariant
        raise AssertionError("dominance reduction emptied a coverage constraint")
    merged_rows = len(cover) - len(merged_cover)
    # Reduction 6: every row's test ids go to the root of its parent chain.
    parents = largest_proper_subsets(merged_cover)
    roots = np.where(parents >= 0, parents, np.arange(len(parents)))
    while True:
        higher = roots[roots]
        if np.array_equal(higher, roots):
            break
        roots = higher
    kept_rows = np.flatnonzero(parents < 0)
    position = np.full(len(merged_cover), -1, dtype=np.intp)
    position[kept_rows] = np.arange(len(kept_rows))
    final_cover = merged_cover[kept_rows]
    subsumed_rows = len(merged_cover) - len(final_cover)

    # Reductions 7 and 5 on the FP rows.
    left = _union(final_cover)
    fp_left = fp & left
    # The rows of atoms that only a subsumed cover row needed.
    subsumed_rows += int(popcounts(fp & kept).sum() - popcounts(fp_left).sum())
    nonempty = fp_left.any(axis=1)
    final_fp, to_final = _canonical_groups(fp_left[nonempty])
    merged_rows += int(popcounts(fp_left[nonempty]).sum() - popcounts(final_fp).sum())
    fp_row = np.full(len(fp), -1, dtype=np.intp)
    fp_row[nonempty] = to_final
    final_weights = np.bincount(
        to_final, weights=fp_weights[nonempty], minlength=len(final_fp)
    ).astype(np.int64)
    return _instance(
        final_cover,
        _ids_by_row(position[roots[to_merged[cover_of]]], cover_ids, len(final_cover)),
        final_fp,
        final_weights,
        _ids_by_row(fp_row[fp_of], fp_ids, len(final_fp)),
        uncoverable,
        {"merged": merged_rows, "subsumed": subsumed_rows},
    )


def _ids_by_row(
    row_of: np.ndarray, test_ids: np.ndarray, row_count: int, by_id: bool = True
) -> Tuple[Tuple[int, ...], ...]:
    """The test ids of each of ``row_count`` rows, given the row of each
    test id (-1 for none), sorted or in their given order."""
    keep = row_of >= 0
    row_of, test_ids = row_of[keep], test_ids[keep]
    if by_id:
        order = np.lexsort((test_ids, row_of))
    else:
        order = np.argsort(row_of, kind="stable")
    ids = test_ids[order].tolist()
    bounds = [0] + np.cumsum(np.bincount(row_of, minlength=row_count)).tolist()
    return tuple(tuple(ids[low:high]) for low, high in zip(bounds, bounds[1:]))


def _atom_sets(
    rows: np.ndarray,
) -> Tuple[Tuple[FrozenSet[int], ...], np.ndarray, np.ndarray]:
    """The atom set of each packed row, with :func:`unpack_bits`'s
    ``(row, bit)`` positions they came from."""
    row, bit = unpack_bits(rows)
    # One int object per atom id, shared by every set that holds it.
    atoms = np.arange(rows.shape[1] * WORD_BITS).astype(object)[bit].tolist()
    bounds = [0] + np.cumsum(np.bincount(row, minlength=len(rows))).tolist()
    sets = tuple(frozenset(atoms[low:high]) for low, high in zip(bounds, bounds[1:]))
    return sets, row, bit


def _instance(
    cover: np.ndarray,
    cover_test_ids,
    fp: np.ndarray,
    fp_weights: np.ndarray,
    fp_test_ids,
    uncoverable: np.ndarray,
    reduced_rows: Dict[str, int],
) -> IlpInstance:
    """The instance of packed ``cover`` and ``fp`` rows over atom ids,
    which keeps them packed over candidate positions."""
    _rows, candidates = unpack_bits(_union(cover)[None, :])
    cover_sets, cover_row, cover_bit = _atom_sets(cover)
    fp_sets, fp_row, fp_bit = _atom_sets(fp)
    words = _words(len(candidates))
    position = np.zeros(cover.shape[1] * WORD_BITS, np.intp)
    position[candidates] = np.arange(len(candidates))
    instance = IlpInstance(
        candidate_atom_ids=tuple(candidates.tolist()),
        cover_sets=cover_sets,
        fp_sets=tuple(zip(fp_sets, fp_weights.tolist())),
        uncoverable_test_ids=tuple(uncoverable.tolist()),
        cover_test_ids=cover_test_ids,
        fp_test_ids=fp_test_ids,
        reduced_rows=reduced_rows,
    )
    instance._packed = PackedRows(
        cover=pack_bits(cover_row, position[cover_bit], len(cover), words),
        fp=pack_bits(fp_row, position[fp_bit], len(fp), words),
        fp_weights=fp_weights.astype(np.int64),
    )
    return instance


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
