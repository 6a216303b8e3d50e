"""The exact LP bound (``lp_lower_bound``) and the PDLP path of
``ScipyMilpSolver``: a bound from any multipliers never exceeds the
optimum, a certified contract is optimal, and PDLP agrees with the
simplex LP it stands in for."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from repro.contracts.riscv_template import build_riscv_template
from repro.metrics.registry import Metrics, install_metrics
from repro.synthesis import highs, solvers
from repro.synthesis.ilp import build_ilp_instance
from repro.synthesis.solvers import (
    BranchAndBoundSolver,
    GreedySolver,
    ScipyMilpSolver,
    lp_lower_bound,
)
from repro.synthesis.synthesizer import ContractSynthesizer
from repro.trace import Tracer
from test_solvers import (
    _odd_cycle_datasets,
    _recorded_problem,
    _small_datasets,
    make_dataset,
    odd_cycle_entries,
)

needs_binding = pytest.mark.skipif(
    highs.load_binding() is None, reason="no _highspy binding"
)

_DATASETS = st.one_of(_small_datasets, _odd_cycle_datasets())

#: Multipliers of every size: int64 and Python-int arithmetic, and the
#: non-finite values the bound must zero.
_MULTIPLIERS = st.one_of(
    st.floats(-1e3, 1e3),
    st.floats(-1e16, 1e16),
    st.floats(allow_nan=True, allow_infinity=True),
)


def _objective(instance, selection):
    """``ScipyMilpSolver``'s objective ``FP·(n+1) + |S|``."""
    atom_count = len(instance.candidate_atom_ids)
    fp_weight = instance.false_positive_weight(selection)
    return (atom_count + 1) * fp_weight + len(selection)


def _forced_objective(instance):
    """The constant the formulation leaves out: the weight of the FP
    sets that contain a cover set, at ``n + 1`` per false positive."""
    forced = sum(
        weight
        for atoms, weight in instance.fp_sets
        if any(cover <= atoms for cover in instance.cover_sets)
    )
    return (len(instance.candidate_atom_ids) + 1) * forced


def _case(dataset):
    """The reduced instance, its HiGHS problem and the objective of its
    branch-and-bound optimum, or ``None`` without cover rows."""
    problem = _recorded_problem(dataset)
    if problem is None:
        return None
    instance = build_ilp_instance(dataset)
    best = BranchAndBoundSolver().solve(instance)
    assert best.optimal
    return instance, problem, _objective(instance, best.selected_atom_ids)


def _lp(problem, **options):
    """The LP relaxation of a recorded problem, solved with ``options``."""
    integrality = np.zeros(len(problem["c"]))
    return highs.solve(**dict(problem, integrality=integrality, options=options))


def _reference_bound(problem, row_dual):
    """``lp_lower_bound`` written out row by row in fractions."""
    scale = 1 << solvers.DUAL_BITS
    rows = zip(row_dual, problem["row_lower"], problem["row_upper"])
    multipliers = []
    total = Fraction(0)
    for dual, lower, upper in rows:
        scaled = float(dual) * scale
        y = Fraction(round(scaled), scale) if math.isfinite(scaled) else 0
        side = lower if y > 0 else upper
        if y and math.isfinite(side):
            total += y * int(side)
        else:
            y = 0
        multipliers.append(y)
    start, index, value = problem["start"], problem["index"], problem["value"]
    for column, cost in enumerate(problem["c"]):
        entries = range(start[column], start[column + 1])
        column_sum = sum(int(value[k]) * multipliers[index[k]] for k in entries)
        total += min(0, int(cost) - column_sum)
    return Fraction(total)


@settings(max_examples=60, deadline=None)
@given(_DATASETS, st.data())
def test_any_multipliers_give_the_exact_bound_below_the_optimum(dataset, data):
    """For random multipliers, the bound equals its fraction-by-fraction
    evaluation, and its ceiling (forced constant included) never exceeds
    the optimum: no selection above the optimum can be certified."""
    case = _case(dataset)
    if case is None:
        return
    instance, problem, optimum = case
    rows = len(problem["row_lower"])
    row_dual = data.draw(st.lists(_MULTIPLIERS, min_size=rows, max_size=rows))
    bound = lp_lower_bound(problem, np.array(row_dual, dtype=float))
    assert bound == _reference_bound(problem, row_dual)
    assert math.ceil(bound + _forced_objective(instance)) <= optimum


@needs_binding
@settings(max_examples=60, deadline=None)
@given(_DATASETS, st.floats(-1.0, 1.0), st.randoms(use_true_random=False))
def test_lp_duals_bound_the_optimum(dataset, noise, rng):
    """The bound from the simplex and the PDLP duals, and from perturbed
    copies of them, never exceeds the optimum; from the simplex duals
    it is the LP optimum."""
    case = _case(dataset)
    if case is None:
        return
    instance, problem, optimum = case
    forced = _forced_objective(instance)
    simplex = _lp(problem)
    pdlp = _lp(problem, solver="pdlp", output_flag=False)
    for relaxation in (simplex, pdlp):
        if relaxation.row_dual is None:
            continue
        duals = relaxation.row_dual
        perturbed = duals + noise * np.array([rng.random() for _ in duals])
        for row_dual in (duals, perturbed):
            assert lp_lower_bound(problem, row_dual) + forced <= optimum
    bound = float(lp_lower_bound(problem, simplex.row_dual))
    assert bound == pytest.approx(simplex.fun, rel=1e-6, abs=1e-4)


def _solve(instance, pdlp):
    """``ScipyMilpSolver`` on the simplex path, or on the PDLP path
    whatever the formulation's size."""
    rows = 0 if pdlp else solvers.PDLP_MIN_ROWS
    with mock.patch.object(solvers, "PDLP_MIN_ROWS", rows):
        return ScipyMilpSolver(time_limit=None).solve(instance)


@settings(max_examples=60, deadline=None)
@given(_DATASETS, st.booleans())
def test_a_certified_contract_is_optimal(dataset, pdlp):
    """A contract at or under the ceiling of the reported exact bound is
    certified; the ceiling never exceeds the optimum, so it is optimal."""
    case = _case(dataset)
    if case is None:
        return
    instance, _problem, optimum = case
    result = _solve(instance, pdlp)
    objective = _objective(instance, result.selected_atom_ids)
    assert result.optimal
    assert objective == optimum
    if "lp_bound" in result.stats:
        ceiling = math.ceil(Fraction(result.stats["lp_bound"]))
        event("certified" if objective <= ceiling else "uncertified")
        assert ceiling <= optimum


def _solve_on_a_pdlp_point(instance, point, noise=0.0, rng=None):
    """``ScipyMilpSolver`` on the PDLP path, with PDLP's point replaced
    by ``point`` (atom id → value, 0 elsewhere) and ``noise`` times a
    uniform draw added to each of its duals."""
    atom_index = {atom: i for i, atom in enumerate(instance.candidate_atom_ids)}
    solve = highs.solve

    def replaced(**kwargs):
        result = solve(**kwargs)
        if kwargs["options"].get("solver") != "pdlp" or result.row_dual is None:
            return result
        x = np.zeros(len(kwargs["c"]))
        for atom, value in point.items():
            x[atom_index[atom]] = value
        duals = result.row_dual
        if noise:
            duals = duals + noise * np.array([rng.random() for _ in duals])
        return result._replace(x=x, row_dual=duals)

    with mock.patch.object(highs, "solve", replaced):
        return _solve(instance, pdlp=True)


@needs_binding
@settings(max_examples=60, deadline=None)
@given(_DATASETS, st.floats(-1.0, 1.0), st.randoms(use_true_random=False))
def test_a_non_optimal_pdlp_point_is_never_certified(dataset, noise, rng):
    """PDLP handing back the greedy selection, with perturbed duals, is
    accepted only when that selection is optimal; otherwise the solver
    falls back to simplex and still returns the optimum."""
    case = _case(dataset)
    if case is None:
        return
    instance, _problem, optimum = case
    greedy = GreedySolver().solve(instance).selected_atom_ids
    point = dict.fromkeys(greedy, 1.0)
    result = _solve_on_a_pdlp_point(instance, point, noise, rng)
    greedy_is_optimal = _objective(instance, greedy) == optimum
    event("greedy optimal" if greedy_is_optimal else "greedy above the optimum")
    if not greedy_is_optimal:
        assert result.stats["lp_fallback"] == 1.0
    assert result.optimal
    assert _objective(instance, result.selected_atom_ids) == optimum


@needs_binding
class TestPdlpPointAcceptance:
    #: Cover rows {1, 2} and {2, 3} and one false positive each for {2}
    #: and {1, 3}: the optimum is {2}, and {1, 3} covers without a
    #: redundant atom, at the same false positives and one atom more.
    ENTRIES = [(True, {1, 2}), (True, {2, 3}), (False, {2}), (False, {1, 3})]

    def _solve(self, point):
        instance = build_ilp_instance(make_dataset(self.ENTRIES))
        return _solve_on_a_pdlp_point(instance, point)

    def test_the_optimal_point_is_certified(self):
        result = self._solve({2: 1.0})
        assert (result.stats["lp_fallback"], result.stats["lp_certificate"]) == (
            0.0,
            1.0,
        )
        assert result.selected_atom_ids == {2}

    def test_a_point_one_atom_above_the_optimum_falls_back(self):
        result = self._solve({1: 1.0, 3: 1.0})
        assert result.stats["lp_fallback"] == 1.0
        assert result.selected_atom_ids == {2}

    def test_a_fractional_point_that_rounds_to_the_optimum_is_certified(self):
        """The exact bound proves the rounded selection, however far
        from integral the point was."""
        result = self._solve({1: 0.4, 2: 0.6, 3: 0.4})
        assert (result.stats["lp_fallback"], result.stats["lp_certificate"]) == (
            0.0,
            1.0,
        )
        assert result.selected_atom_ids == {2}

    def test_a_fractional_point_that_does_not_cover_falls_back(self):
        result = self._solve({1: 0.5, 2: 0.5, 3: 0.5})
        assert result.stats["lp_fallback"] == 1.0
        assert result.selected_atom_ids == {2}


@needs_binding
class TestPdlpAgainstSimplex:
    """PDLP (``solver="pdlp"``) stands in for the simplex LP on the
    recorded problems: same status, the same objective within
    tolerance, and the same ``(FP, |S|)`` from ``ScipyMilpSolver``."""

    @staticmethod
    def _assert_pdlp_matches_simplex(problem):
        simplex = _lp(problem)
        pdlp = _lp(problem, solver="pdlp", output_flag=False)
        if pdlp.status != 0:
            # HiGHS 1.12 reports "Unknown" when its presolve empties the
            # LP and postsolve finds PDLP's duals infeasible; the solver
            # then falls back to simplex.  PDLP on the whole LP solves it.
            event("pdlp unknown after presolve")
            pdlp = _lp(problem, solver="pdlp", output_flag=False, presolve=False)
        assert pdlp.status == simplex.status == 0
        assert pdlp.fun == pytest.approx(simplex.fun, rel=1e-6, abs=1e-6)
        assert pdlp.row_dual is not None

    @settings(max_examples=60, deadline=None)
    @given(_DATASETS)
    def test_pdlp_solves_the_recorded_lp(self, dataset):
        problem = _recorded_problem(dataset)
        if problem is not None:
            self._assert_pdlp_matches_simplex(problem)

    def test_pdlp_on_a_generated_corpus(self):
        """A 2,000-case ibex corpus: PDLP solves its LP, and the PDLP
        branch certifies the simplex path's contract."""
        from repro.pipeline import SynthesisPipeline

        dataset = SynthesisPipeline().budget(2000, 0).executor("serial").evaluate()
        self._assert_pdlp_matches_simplex(_recorded_problem(dataset))
        instance = build_ilp_instance(dataset)
        simplex = _solve(instance, pdlp=False)
        first_order = _solve(instance, pdlp=True)
        stats = first_order.stats
        assert (stats["lp_fallback"], stats["lp_certificate"]) == (0.0, 1.0)
        assert first_order.selected_atom_ids == simplex.selected_atom_ids

    @settings(max_examples=60, deadline=None)
    @given(_DATASETS)
    def test_the_pdlp_branch_returns_the_simplex_optimum(self, dataset):
        instance = build_ilp_instance(dataset)
        simplex = _solve(instance, pdlp=False)
        first_order = _solve(instance, pdlp=True)
        if instance.cover_sets:
            event("fell back" if first_order.stats["lp_fallback"] else "pdlp")
        assert first_order.optimal
        assert first_order.false_positives == simplex.false_positives
        assert len(first_order.selected_atom_ids) == len(simplex.selected_atom_ids)

    def test_a_fractional_pdlp_point_falls_back_to_simplex(self, tmp_path):
        """The odd triangle's LP optimum is ½ on every atom, so the PDLP
        point is rejected, simplex re-solves, and branch and cut proves
        the optimum."""
        triangle = make_dataset(odd_cycle_entries(3))
        metrics = Metrics(Tracer(str(tmp_path / "trace.jsonl")))
        previous = install_metrics(metrics)
        try:
            synthesizer = ContractSynthesizer(build_riscv_template())
            with mock.patch.object(solvers, "PDLP_MIN_ROWS", 0):
                synthesis = synthesizer.synthesize(triangle)
        finally:
            install_metrics(previous)
        stats = synthesis.solver_result.stats
        assert stats["lp_fallback"] == 1.0
        assert stats["lp_certificate"] == 0.0
        assert synthesis.solver_result.optimal
        assert (synthesis.false_positives, synthesis.atom_count) == (2, 2)
        assert metrics.counter("solver.lp_fallbacks").value == 1
        assert metrics.counter("solver.lp_certificates").value == 0
