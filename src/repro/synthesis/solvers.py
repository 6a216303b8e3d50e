"""Solver backends for the synthesis ILP.

Three interchangeable backends:

- :class:`ScipyMilpSolver` — exact, HiGHS through the binding that
  ships inside SciPy (:mod:`repro.synthesis.highs`, which hands it
  what ``scipy.optimize.milp`` would).  The default; the paper uses
  Google OR-Tools, any exact 0-1 ILP solver yields the same optimum.
  It solves the LP relaxation first and stops there when the rounded
  LP solution matches the relaxation's bound (an *LP certificate*);
  only otherwise does HiGHS branch and cut, with MIP presolve off.
  A large relaxation goes to HiGHS's first-order PDLP solver before
  dual simplex, and its point counts only when the exact bound of
  :func:`lp_lower_bound`, computed from its duals in integer
  arithmetic, proves it optimal.  One ``time_limit`` covers every
  solve.
- :class:`BranchAndBoundSolver` — exact, pure Python.  Self-contained
  reference implementation used to cross-check the scipy backend and
  in environments without SciPy.
- :class:`GreedySolver` — a classic weighted set-cover heuristic used
  as an ablation baseline (how much precision does optimality buy?).

The two exact backends return a contract that is optimal in the
lexicographic ``(false positives, atom count)`` order: no covering
contract has fewer false positives, and none with as few has fewer
atoms.  That optimum is the same whichever loss-free reductions (see
:mod:`repro.synthesis.ilp`) ran.  Ties among equal-size contracts with
equal false positives remain, and the backends may break them
differently; the scipy backend breaks them by whichever of its solves
(PDLP, dual simplex or branch and cut) proved the optimum.  The greedy
backend only approximates the order.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.synthesis import highs
from repro.synthesis.ilp import (
    IlpInstance,
    atom_masks,
    largest_proper_subsets,
    popcounts,
    subset_pairs,
    unpack_bits,
)


@dataclass
class SolverResult:
    """Outcome of one ILP solve."""

    selected_atom_ids: FrozenSet[int]
    false_positives: int
    solver_name: str
    optimal: bool
    #: Backend-specific statistics (nodes explored, iterations, ...).
    stats: Dict[str, float] = None

    def __post_init__(self) -> None:
        if self.stats is None:
            self.stats = {}


class IlpSolver:
    """Backend interface."""

    name = "abstract"

    def solve(self, instance: IlpInstance) -> SolverResult:
        raise NotImplementedError

    @staticmethod
    def _verify(instance: IlpInstance, selection: FrozenSet[int]) -> None:
        if not instance.covers_all(selection):
            raise AssertionError("solver returned a non-covering selection")


def eliminate_redundant_atoms(
    instance: IlpInstance, selection: Sequence[int]
) -> List[int]:
    """Drop atoms whose coverage is subsumed by the rest.

    Loss-free: removing atoms never increases the number of false
    positives, and coverage is re-checked per removal.  The most
    FP-expensive redundancies are dropped first.
    """
    fp_cost = {atom_id: 0 for atom_id in selection}
    for atoms, weight in instance.fp_sets:
        for atom_id in atoms:
            if atom_id in fp_cost:
                fp_cost[atom_id] += weight
    coverage = {atom_id: 0 for atom_id in selection}
    for atoms in instance.cover_sets:
        for atom_id in atoms:
            if atom_id in coverage:
                coverage[atom_id] += 1
    kept = list(selection)
    # Try to drop FP-expensive atoms first, then narrow ones.
    for atom_id in sorted(selection, key=lambda a: (-fp_cost[a], coverage[a], a)):
        remainder = [other for other in kept if other != atom_id]
        if remainder and instance.covers_all(remainder):
            kept = remainder
    return kept


#: Relative tolerance on the LP bound in the certificate of
#: :class:`ScipyMilpSolver`'s simplex path.  It equals HiGHS's default
#: optimality (dual feasibility) tolerance, so the certificate trusts
#: the bound no more than HiGHS trusts its own optimum.
LP_BOUND_TOLERANCE = 1e-7

#: :func:`lp_lower_bound` rounds the row multipliers to multiples of
#: ``2**-DUAL_BITS``.
DUAL_BITS = 20

#: Formulations with at least this many rows solve their LP relaxation
#: with HiGHS's first-order PDLP solver first (see
#: :class:`ScipyMilpSolver`).  Measured on a 2-vCPU x86_64 host with
#: HiGHS 1.12, as whole solves on both paths of prefixes of 2,000 to
#: 12,000 cases of 12 ``ibex-rv32im-12k`` oracle corpora, 132 pairs:
#: below 5k rows the PDLP path was 23 % slower in total (5 of 14 solves
#: fell back to simplex); from 5k to 10k rows 6–7 % faster (10 of 57
#: fell back, and one at 7,264 rows broke a tie differently); from 10k
#: to 15k rows 24 % faster (2 of 25 fell back); from 15k to 27k rows
#: 40 % faster (none fell back).  The cut-off keeps PDLP where it saves
#: 20 % or more and moved no tie.  Adaptive rounds (at most 4,692 rows
#: over the 120 ``ibex-adaptive-8x250`` oracle corpora) and
#: ``cva6-mem-24k`` (67–110 rows over its 50 oracle corpora) stay on
#: simplex.
PDLP_MIN_ROWS = 10_000


def lp_lower_bound(problem, row_dual) -> Fraction:
    """An exact lower bound on the LP that ``problem`` describes, from
    any row multipliers ``row_dual`` (Neumaier & Shcherbina, "Safe
    bounds in linear and mixed-integer linear programming", Math.
    Program. 99, 2004).

    ``problem`` holds the arrays :func:`repro.synthesis.highs.solve`
    takes: minimize ``c·x`` subject to ``row_lower ≤ A·x ≤ row_upper``
    and ``0 ≤ x ≤ 1``, with integral ``c``, ``A`` and finite row
    bounds.  For every ``y``, the LP optimum is at least
    ``Σ_i (y_i > 0 ? y_i·l_i : y_i·u_i) + Σ_j min(0, c_j − (Aᵀy)_j)``.
    ``y`` is rounded to multiples of ``2**-DUAL_BITS``; a multiplier
    that would multiply an infinite row bound, or is not finite, is
    zeroed.  The sum is evaluated in integers, so the bound is exact
    whatever solver produced the multipliers and however accurate they
    are: HiGHS's row duals are used in its own sign.
    """
    import numpy as np

    scale = 1 << DUAL_BITS
    lower = np.asarray(problem["row_lower"], dtype=float)
    upper = np.asarray(problem["row_upper"], dtype=float)
    cost = np.asarray(problem["c"], dtype=float)
    value = np.asarray(problem["value"], dtype=float)
    start = np.asarray(problem["start"])
    index = np.asarray(problem["index"])
    for name, array in (("c", cost), ("value", value)):
        if not np.array_equal(array, np.rint(array)):
            raise ValueError("lp_lower_bound needs an integral %s" % name)

    y = np.rint(np.asarray(row_dual, dtype=float) * scale)
    unusable = ~np.isfinite(y)
    unusable |= (y > 0) & ~np.isfinite(lower)
    unusable |= (y < 0) & ~np.isfinite(upper)
    y[unusable] = 0.0
    side = np.where(y > 0, lower, np.where(y < 0, upper, 0.0))
    if not np.array_equal(side, np.rint(side)):
        raise ValueError("lp_lower_bound needs integral row bounds")

    # No partial sum below exceeds this in magnitude.  int64 holds it
    # with room to spare; Python ints hold anything.
    magnitude = (
        float(np.abs(y) @ np.abs(side))
        + float(np.abs(cost).sum()) * scale
        + float(np.abs(y[index]) @ np.abs(value))
    )
    small = magnitude < 2.0**62

    def exact(array):
        if small:
            return array.astype(np.int64)
        return np.array([int(item) for item in array], dtype=object)

    y = exact(y)
    partial = np.cumsum(exact(value) * y[index])
    partial = np.concatenate([np.zeros(1, dtype=partial.dtype), partial])
    reduced = exact(cost) * scale - np.diff(partial[start])
    total = int((y * exact(side)).sum()) + int(np.minimum(reduced, 0).sum())
    return Fraction(total, scale)


class ScipyMilpSolver(IlpSolver):
    """Exact backend on HiGHS, called as ``scipy.optimize.milp`` calls
    it (see :mod:`repro.synthesis.highs`).

    The objective is ``FP·(n+1) + |S|`` over ``n`` atom variables: one
    false positive outweighs any number of atoms, so an optimum of the
    integer program is optimal in the ``(false positives, atom count)``
    order.  The instance is handed over in a smaller but equivalent
    form:

    - *Forced* FP sets (those containing a cover set) are hit by every
      feasible selection; their weight is a constant, with no row and
      no ``c_t``.
    - *Singleton* FP sets ``{A}`` fold their weight into ``s_A``'s
      objective coefficient.
    - *Nested* FP sets are chained: a set ``F`` whose largest proper
      subset among the remaining FP sets is ``P`` (ties to the first
      such set) gets the row ``c_P ≤ c_F`` plus ``s_A ≤ c_F`` only for
      ``A ∈ F \\ P``.

    The formulation is built on the instance's packed rows
    (:meth:`~repro.synthesis.ilp.IlpInstance.packed`), in the instance's
    canonical row order: the forced sets and the parents ``P`` are both
    found by :func:`~repro.synthesis.ilp.subset_pairs`, and the row and
    column indices come from the set bits, so HiGHS receives the same
    arrays whatever the order of the results.

    The LP relaxation of that formulation is solved first.  Its atom
    variables are rounded at 0.5.  When the rounded selection covers
    every row, its redundant atoms are dropped and its exact objective
    (forced constant included) is compared with the LP bound.  Every
    objective coefficient is an integer, so no integer solution lies
    below ``⌈bound − tol⌉``, where ``tol`` is the bound times
    :data:`LP_BOUND_TOLERANCE`.  A selection at or under that value is
    a proven optimum and is returned without branch and cut
    (``stats["lp_certificate"]`` is 1.0, as for an accepted PDLP point
    below).  At 12k cases the relaxation is usually integral, so this is
    the common path.

    The simplex bound above is HiGHS's reported objective, trusted to
    its tolerance.  The exact bound of :func:`lp_lower_bound` from the
    relaxation's row duals needs no such trust; it is reported as
    ``stats["lp_bound"]`` (forced constant included), so a selection
    whose objective is at most its ceiling can be checked optimal
    without trusting HiGHS.

    A formulation of at least :data:`PDLP_MIN_ROWS` rows solves its
    relaxation on HiGHS's PDLP first.  PDLP's objective is a primal
    value within its tolerance, not a bound, so its point, rounded as
    above, is accepted only when the rounded selection covers every row
    and its exact objective is at most the ceiling of the exact bound
    from PDLP's duals.  That proves it optimal however far from
    integral the point was.  Otherwise the relaxation is solved again
    on dual simplex, exactly as above (``stats["lp_fallback"]`` is
    1.0).  Without SciPy's HiGHS binding no duals are available, so
    neither PDLP nor the exact bound runs.

    Otherwise HiGHS solves the integer program with a zero MIP gap,
    because its default relative gap could stop short of the
    atom-count tie-break.  MIP presolve is off there: on these
    instances it costs more than it saves.

    ``time_limit`` (seconds) covers every solve: the first LP gets all
    of it and each later solve what is left.  When it runs out, the best
    incumbent is returned with ``optimal=False``, or the greedy
    solution if HiGHS has none (as after an LP cut off by the limit).
    Dense instances — deep-pipeline cores whose mispredictions make
    whole suffixes distinguishable — can otherwise take hours to
    *prove* optimality long after finding the optimum.
    """

    name = "scipy-milp"

    def __init__(self, time_limit: Optional[float] = 120.0):
        self.time_limit = time_limit

    def solve(self, instance: IlpInstance) -> SolverResult:
        import numpy as np

        if not instance.cover_sets:
            return SolverResult(frozenset(), 0, self.name, optimal=True)

        atom_ids = instance.candidate_atom_ids
        atom_count = len(atom_ids)
        fp_scale = float(atom_count + 1)
        stats = {
            "rows.%s" % name: count for name, count in instance.reduced_rows.items()
        }

        # Objective FP·(n+1) + |S|: 1 per atom, fp_scale per false positive.
        atom_objective = np.ones(atom_count)
        packed = instance.packed()
        fp_rows, fp_weights = packed.fp, packed.fp_weights
        fp_sizes = popcounts(fp_rows)
        forced = np.zeros(len(fp_rows), dtype=bool)
        forced[subset_pairs(fp_rows, packed.cover)[0]] = True
        stats["rows.forced"] = int(fp_sizes[forced].sum())
        forced_weight = int(fp_weights[forced].sum())
        folded = ~forced & (fp_sizes == 1)
        _rows, folded_atoms = unpack_bits(fp_rows[folded])
        atom_objective[folded_atoms] += fp_scale * fp_weights[folded]
        stats["rows.folded"] = int(folded.sum())
        modelled = ~forced & (fp_sizes > 1)
        modelled_sets = fp_rows[modelled]
        modelled_weights = fp_scale * fp_weights[modelled]

        fp_count = len(modelled_sets)
        parents = largest_proper_subsets(modelled_sets)
        chained = parents >= 0
        own = modelled_sets.copy()
        own[chained] &= ~modelled_sets[parents[chained]]
        stats["rows.chained"] = int(
            fp_sizes[modelled].sum() - popcounts(own).sum() - chained.sum()
        )

        # Rows: cover sets (sum s_A >= 1), then s_A - c_F <= 0, then
        # c_P - c_F <= 0.  Columns: atoms, then one c_F per modelled set.
        cover_rows, cover_cols = unpack_bits(packed.cover)
        cover_count = len(instance.cover_sets)
        own_sets, own_atoms = unpack_bits(own)
        link_rows = cover_count + np.arange(len(own_sets))
        chain_sets = np.flatnonzero(chained)
        chain_rows = cover_count + len(own_sets) + np.arange(len(chain_sets))
        row_count = cover_count + len(own_sets) + len(chain_sets)
        variable_count = atom_count + fp_count
        rows = np.concatenate(
            [cover_rows, link_rows, link_rows, chain_rows, chain_rows]
        )
        cols = np.concatenate(
            [
                cover_cols,
                own_atoms,
                atom_count + own_sets,
                atom_count + parents[chain_sets],
                atom_count + chain_sets,
            ]
        )
        data = np.concatenate(
            [
                np.ones(len(cover_rows)),
                np.ones(len(own_sets)),
                -np.ones(len(own_sets)),
                np.ones(len(chain_sets)),
                -np.ones(len(chain_sets)),
            ]
        )
        # Column-wise, row indices ascending inside each column: the
        # arrays ``csc_array`` would hold for this matrix.
        order = np.lexsort((rows, cols))
        column_start = np.zeros(variable_count + 1, dtype=np.int32)
        np.cumsum(np.bincount(cols, minlength=variable_count), out=column_start[1:])
        lower = np.concatenate(
            [np.ones(cover_count), np.full(row_count - cover_count, -1.0)]
        )
        upper = np.concatenate(
            [np.full(cover_count, np.inf), np.zeros(row_count - cover_count)]
        )
        stats.update({"variables": variable_count, "constraints": row_count})
        problem = dict(
            c=np.concatenate([atom_objective, modelled_weights]),
            start=column_start,
            index=rows[order].astype(np.int32),
            value=data[order],
            row_lower=lower,
            row_upper=upper,
        )

        start = time.perf_counter()

        def solve_in_budget(integrality, **options):
            """One HiGHS solve in what is left of ``time_limit``, or
            ``None`` when nothing is left."""
            if self.time_limit is not None:
                left = self.time_limit - (time.perf_counter() - start)
                if left <= 0.0:
                    return None
                options["time_limit"] = left
            return highs.solve(integrality=integrality, options=options, **problem)

        def atoms_above_half(x) -> List[int]:
            return [atom_ids[index] for index in np.flatnonzero(x[:atom_count] > 0.5)]

        def rounded_selection(x):
            """The atoms of ``x`` above one half without the redundant
            ones, with their exact objective (forced constant included),
            or ``None`` when they do not cover every row."""
            rounded = atoms_above_half(x)
            if not instance.covers_all(rounded):
                return None
            rounded = frozenset(eliminate_redundant_atoms(instance, rounded))
            fp_weight = instance.false_positive_weight(rounded)
            return rounded, (atom_count + 1) * fp_weight + len(rounded)

        def exact_bound(relaxation) -> Fraction:
            """:func:`lp_lower_bound` from the relaxation's row duals,
            forced constant included; also reported in ``stats``."""
            bound = lp_lower_bound(problem, relaxation.row_dual)
            bound += (atom_count + 1) * forced_weight
            stats["lp_bound"] = float(bound)
            return bound

        # The LP relaxation first: a rounded point that reaches its
        # bound is a proven optimum (see the class docstring).  A large
        # one goes to PDLP first, and its rounded point counts only when
        # the exact bound from its duals proves it.
        selected = None
        zeros = np.zeros(variable_count)
        if row_count >= PDLP_MIN_ROWS and highs.load_binding() is not None:
            first_order = solve_in_budget(zeros, solver="pdlp", output_flag=False)
            if first_order is not None and first_order.row_dual is not None:
                candidate = rounded_selection(first_order.x)
                if candidate is not None:
                    rounded, objective = candidate
                    if objective <= math.ceil(exact_bound(first_order)):
                        selected = rounded
            stats["lp_fallback"] = float(selected is None)
        if selected is None:
            relaxation = solve_in_budget(zeros)
            if relaxation is not None and relaxation.status == 0:
                if relaxation.row_dual is not None:
                    exact_bound(relaxation)  # reported only
                candidate = rounded_selection(relaxation.x)
                if candidate is not None:
                    rounded, objective = candidate
                    bound = relaxation.fun + fp_scale * forced_weight
                    tolerance = LP_BOUND_TOLERANCE * max(1.0, abs(bound))
                    if objective <= math.ceil(bound - tolerance):
                        selected = rounded
        optimal = selected is not None
        stats["lp_certificate"] = float(optimal)
        if selected is None:
            result = solve_in_budget(
                np.ones(variable_count), mip_rel_gap=0.0, presolve=False
            )
            if result is not None and result.x is not None:
                raw_selection = atoms_above_half(result.x)
                optimal = result.status == 0
            elif result is None or result.status == 1:  # out of time, no incumbent
                raw_selection = sorted(GreedySolver().solve(instance).selected_atom_ids)
            else:  # pragma: no cover - defensive
                raise RuntimeError("MILP solve failed with status %d" % result.status)
            selected = frozenset(eliminate_redundant_atoms(instance, raw_selection))
        self._verify(instance, selected)
        return SolverResult(
            selected_atom_ids=selected,
            false_positives=instance.false_positive_weight(selected),
            solver_name=self.name,
            optimal=optimal,
            stats=stats,
        )


class GreedySolver(IlpSolver):
    """Weighted greedy set cover with redundancy elimination."""

    name = "greedy"

    def solve(self, instance: IlpInstance) -> SolverResult:
        atom_covers, _fp_masks = atom_masks(instance)
        uncovered = (1 << len(instance.cover_sets)) - 1
        atom_fp = dict.fromkeys(instance.candidate_atom_ids, 0)
        for atoms, weight in instance.fp_sets:
            for atom_id in atoms:
                atom_fp[atom_id] += weight

        selection: List[int] = []
        iterations = 0
        while uncovered:
            iterations += 1
            best_atom = None
            best_key = None
            for atom_id, covers in atom_covers.items():
                gain = (covers & uncovered).bit_count()
                if gain == 0:
                    continue
                # Cheapest additional FP per newly covered constraint;
                # ties toward smaller atom id for determinism.
                key = (atom_fp[atom_id] / gain, -gain, atom_id)
                if best_key is None or key < best_key:
                    best_key = key
                    best_atom = atom_id
            selection.append(best_atom)
            uncovered &= ~atom_covers[best_atom]

        selection = eliminate_redundant_atoms(instance, selection)
        selected = frozenset(selection)
        self._verify(instance, selected)
        return SolverResult(
            selected_atom_ids=selected,
            false_positives=instance.false_positive_weight(selected),
            solver_name=self.name,
            optimal=False,
            stats={"iterations": iterations},
        )


class BranchAndBoundSolver(IlpSolver):
    """Exact pure-Python branch & bound over the coverage structure.

    Search state is a bitmask of covered constraints plus a bitmask of
    touched FP sets; the greedy solution provides the initial upper
    bound, and a branch is pruned when its FP weight (an admissible
    lower bound — selecting more atoms never removes false positives)
    reaches the incumbent.
    """

    name = "branch-and-bound"

    def __init__(self, node_limit: int = 2_000_000):
        self.node_limit = node_limit

    def solve(self, instance: IlpInstance) -> SolverResult:
        cover_count = len(instance.cover_sets)
        if cover_count == 0:
            return SolverResult(frozenset(), 0, self.name, optimal=True)

        cover_mask, fp_mask = atom_masks(instance)
        fp_weights = [weight for _atoms, weight in instance.fp_sets]

        def weight_of(mask: int) -> int:
            total = 0
            position = 0
            while mask:
                if mask & 1:
                    total += fp_weights[position]
                mask >>= 1
                position += 1
            return total

        greedy = GreedySolver().solve(instance)
        best_selection = tuple(sorted(greedy.selected_atom_ids))
        best_key = (greedy.false_positives, len(best_selection))
        full_mask = (1 << cover_count) - 1

        # Order the atoms inside each constraint by FP cost (cheap
        # first) so good solutions are found early.
        constraint_options: List[List[int]] = [
            sorted(atoms, key=lambda a: (weight_of(fp_mask[a]), a))
            for atoms in instance.cover_sets
        ]

        nodes = [0]
        optimal = [True]

        def search(covered: int, fp_bits: int, selection: Tuple[int, ...]):
            nonlocal best_selection, best_key
            nodes[0] += 1
            if nodes[0] > self.node_limit:  # pragma: no cover - safety valve
                optimal[0] = False
                return
            current_fp = weight_of(fp_bits)
            key = (current_fp, len(selection))
            if key >= best_key:
                return
            if covered == full_mask:
                best_key = key
                best_selection = selection
                return
            # Branch on the uncovered constraint with fewest options.
            pivot = None
            pivot_options = None
            for position in range(cover_count):
                if covered & (1 << position):
                    continue
                options = constraint_options[position]
                if pivot_options is None or len(options) < len(pivot_options):
                    pivot, pivot_options = position, options
                    if len(options) == 1:
                        break
            for atom_id in pivot_options:
                search(
                    covered | cover_mask[atom_id],
                    fp_bits | fp_mask[atom_id],
                    selection + (atom_id,),
                )

        search(0, 0, ())
        selected = frozenset(best_selection)
        self._verify(instance, selected)
        return SolverResult(
            selected_atom_ids=selected,
            false_positives=instance.false_positive_weight(selected),
            solver_name=self.name,
            optimal=optimal[0],
            stats={"nodes": nodes[0]},
        )
