"""Tests for the three solver backends, including cross-checks of
exactness on randomized instances."""

import contextlib
import hashlib
import itertools
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from repro.evaluation.results import EvaluationDataset, TestCaseResult
from repro.synthesis import highs
from repro.synthesis.ilp import build_ilp_instance
from repro.synthesis.solvers import (
    BranchAndBoundSolver,
    GreedySolver,
    ScipyMilpSolver,
)

ALL_SOLVERS = [ScipyMilpSolver(), BranchAndBoundSolver(), GreedySolver()]
EXACT_SOLVERS = [ScipyMilpSolver(), BranchAndBoundSolver()]


def make_dataset(entries):
    return EvaluationDataset(
        [
            TestCaseResult(test_id, dist, frozenset(atoms))
            for test_id, (dist, atoms) in enumerate(entries)
        ]
    )


def make_instance(entries, allowed=None, reduce_dominated=True):
    """``reduce_dominated=False`` keeps the rows exactly as written, so a
    test controls which FP rows the solver sees."""
    return build_ilp_instance(make_dataset(entries), allowed, reduce_dominated)


@pytest.mark.parametrize("solver", ALL_SOLVERS, ids=lambda s: s.name)
class TestAllSolvers:
    def test_trivial_single_atom(self, solver):
        instance = make_instance([(True, {3})])
        result = solver.solve(instance)
        assert result.selected_atom_ids == {3}
        assert result.false_positives == 0

    def test_empty_instance(self, solver):
        instance = make_instance([(False, {1})])
        result = solver.solve(instance)
        assert result.selected_atom_ids == frozenset()
        assert result.false_positives == 0

    def test_coverage_always_satisfied(self, solver):
        instance = make_instance(
            [
                (True, {1, 2}),
                (True, {2, 3}),
                (True, {4}),
                (False, {2}),
                (False, {4, 1}),
            ]
        )
        result = solver.solve(instance)
        assert instance.covers_all(result.selected_atom_ids)
        assert result.false_positives == instance.false_positive_weight(
            result.selected_atom_ids
        )

    def test_prefers_precise_atom(self, solver):
        # Atom 1 covers the leak with no FPs; atom 2 covers it with 3.
        instance = make_instance(
            [
                (True, {1, 2}),
                (False, {2}),
                (False, {2}),
                (False, {2}),
            ]
        )
        result = solver.solve(instance)
        assert result.selected_atom_ids == {1}
        assert result.false_positives == 0

    def test_unavoidable_false_positive(self, solver):
        instance = make_instance(
            [
                (True, {1}),
                (False, {1}),
            ]
        )
        result = solver.solve(instance)
        assert result.selected_atom_ids == {1}
        assert result.false_positives == 1

    def test_no_gratuitous_atoms(self, solver):
        # One atom covers everything; adding others is never better.
        instance = make_instance(
            [
                (True, {7, 8}),
                (True, {7, 9}),
            ]
        )
        result = solver.solve(instance)
        assert result.selected_atom_ids == {7}


@pytest.mark.parametrize("solver", EXACT_SOLVERS, ids=lambda s: s.name)
class TestExactSolvers:
    def test_optimal_flag(self, solver):
        result = solver.solve(make_instance([(True, {1})]))
        assert result.optimal

    def test_tradeoff_requires_optimality(self, solver):
        # Greedy ratio heuristics can be lured into picking atom 5
        # (covers both constraints, 2 FPs) over {1, 2} (0 FPs).
        instance = make_instance(
            [
                (True, {1, 5}),
                (True, {2, 5}),
                (False, {5}),
                (False, {5}),
            ]
        )
        result = solver.solve(instance)
        assert result.selected_atom_ids == {1, 2}
        assert result.false_positives == 0

    def test_minimum_fp_choice_among_overlaps(self, solver):
        # Covering {1,2} and {2,3}: atom 2 alone covers both but costs
        # 2 FPs; atoms {1,3} cost 1 FP total... optimal is atom 2? No:
        # {1,3}: FP sets touching 1: one case; touching 3: none -> 1 FP.
        instance = make_instance(
            [
                (True, {1, 2}),
                (True, {2, 3}),
                (False, {2}),
                (False, {2}),
                (False, {1}),
            ]
        )
        result = solver.solve(instance)
        assert result.false_positives == 1
        assert result.selected_atom_ids == {1, 3}


def brute_force_optimum(instance):
    """Reference optimum by exhaustive search."""
    atoms = instance.candidate_atom_ids
    best = None
    for size in range(len(atoms) + 1):
        for subset in itertools.combinations(atoms, size):
            if not instance.covers_all(subset):
                continue
            fp = instance.false_positive_weight(subset)
            key = (fp, size)
            if best is None or key < best:
                best = key
        if best is not None and best[0] == 0:
            break
    return best


@pytest.mark.parametrize("seed", range(12))
def test_exact_solvers_match_brute_force(seed):
    rng = random.Random(seed)
    atom_pool = list(range(1, 9))
    entries = []
    for _ in range(rng.randint(2, 6)):
        entries.append((True, set(rng.sample(atom_pool, rng.randint(1, 3)))))
    for _ in range(rng.randint(0, 8)):
        entries.append((False, set(rng.sample(atom_pool, rng.randint(1, 3)))))
    instance = make_instance(entries)
    expected = brute_force_optimum(instance)
    assert expected is not None
    for solver in EXACT_SOLVERS:
        result = solver.solve(instance)
        # Both backends are exact in (false positives, atom count).
        assert result.false_positives == expected[0], solver.name
        assert len(result.selected_atom_ids) == expected[1], solver.name


@pytest.mark.parametrize("seed", range(6))
def test_greedy_feasible_and_not_much_worse(seed):
    rng = random.Random(100 + seed)
    atom_pool = list(range(1, 10))
    entries = [
        (True, set(rng.sample(atom_pool, rng.randint(1, 3))))
        for _ in range(rng.randint(2, 7))
    ] + [
        (False, set(rng.sample(atom_pool, rng.randint(1, 4))))
        for _ in range(rng.randint(0, 10))
    ]
    instance = make_instance(entries)
    greedy = GreedySolver().solve(instance)
    exact = BranchAndBoundSolver().solve(instance)
    assert instance.covers_all(greedy.selected_atom_ids)
    assert greedy.false_positives >= exact.false_positives
    assert greedy.false_positives <= exact.false_positives + len(entries)


def test_branch_and_bound_stats():
    instance = make_instance([(True, {1, 2}), (True, {2, 3})])
    result = BranchAndBoundSolver().solve(instance)
    assert result.stats["nodes"] >= 1


def test_scipy_stats():
    # Incomparable atoms (1, 2 vs 5) survive the dominance reduction.
    instance = make_instance([(True, {1, 5}), (True, {2, 5}), (False, {5})])
    result = ScipyMilpSolver().solve(instance)
    assert result.stats["variables"] >= 3


@contextlib.contextmanager
def _recorded_solves():
    """Record the keyword arguments of every HiGHS solve
    (:func:`repro.synthesis.highs.solve`, ``milp``'s arguments)."""
    calls = []
    solve = highs.solve

    def recording_solve(**kwargs):
        calls.append(kwargs)
        return solve(**kwargs)

    with mock.patch.object(highs, "solve", recording_solve):
        yield calls


@pytest.fixture
def milp_calls():
    with _recorded_solves() as calls:
        yield calls


class TestScipyFormulation:
    def test_forced_fp_set_is_constant(self):
        # {1, 3} contains the cover set {1}: every contract pays case 2.
        instance = make_instance(
            [(True, {1}), (True, {2, 3}), (False, {1, 3})], reduce_dominated=False
        )
        result = ScipyMilpSolver().solve(instance)
        assert result.stats["rows.forced"] == 2
        assert result.stats["constraints"] == 2  # the cover rows only
        assert result.stats["variables"] == 3  # no c_t for the forced set
        assert result.false_positives == 1
        assert len(result.selected_atom_ids) == 2
        assert instance.false_positive_test_ids(result.selected_atom_ids) == [2]

    def test_singleton_fp_set_folds_into_objective(self, milp_calls):
        instance = make_instance(
            [(True, {1, 2}), (False, {1}), (False, {1})], reduce_dominated=False
        )
        result = ScipyMilpSolver().solve(instance)
        assert result.stats["rows.folded"] == 1
        assert result.stats["constraints"] == 1
        assert result.stats["variables"] == 2
        # s_1 costs one atom plus two false positives at weight n + 1 = 3.
        assert list(milp_calls[0]["c"]) == [7.0, 1.0]
        assert result.selected_atom_ids == {2}
        assert result.false_positives == 0

    def test_nested_fp_sets_are_chained(self):
        # {1, 2, 3} ⊂ {1, 2, 3, 5}: the larger set gets c_P ≤ c_F and
        # one row for atom 5 instead of four rows.
        instance = make_instance(
            [
                (True, {1, 2, 3, 4, 5, 6}),
                (False, {1, 2, 3}),
                (False, {1, 2, 3, 5}),
            ],
            reduce_dominated=False,
        )
        plain_rows = len(instance.cover_sets) + sum(
            len(atoms) for atoms, _weight in instance.fp_sets
        )
        result = ScipyMilpSolver().solve(instance)
        assert result.stats["rows.chained"] == 2
        assert result.stats["constraints"] == plain_rows - 2 == 6
        assert result.false_positives == 0
        assert len(result.selected_atom_ids) == 1

    def test_chained_formulation_keeps_the_optimum(self):
        # {1, 5} ⊂ {1, 5, 7} is chained.  Atoms 1 and 5 each pay both
        # sets, atom 7 only the outer one, so {5, 7} is the optimum.
        instance = make_instance(
            [
                (True, {1, 7, 9}),
                (True, {5, 8}),
                (False, {1, 5}),
                (False, {1, 5, 7}),
                (False, {1, 5, 7}),
                (False, {1}),
                (False, {8}),
                (False, {8}),
                (False, {8}),
                (False, {9}),
                (False, {9}),
                (False, {9}),
            ],
            reduce_dominated=False,
        )
        result = ScipyMilpSolver().solve(instance)
        assert result.stats["rows.chained"] == 1
        expected = BranchAndBoundSolver().solve(instance)
        assert result.false_positives == expected.false_positives == 3
        assert result.selected_atom_ids == expected.selected_atom_ids == {5, 7}

    def test_time_limit_covers_the_lp(self):
        # The LP relaxation is integral here (the certificate fires without
        # a limit), but a spent budget must not report a proven optimum.
        instance = make_instance([(True, {1, 2}), (False, {2}), (False, {2})])
        assert ScipyMilpSolver(time_limit=None).solve(instance).optimal
        result = ScipyMilpSolver(time_limit=0.0).solve(instance)
        assert not result.optimal
        assert instance.covers_all(result.selected_atom_ids)

    def test_time_limit_without_incumbent_falls_back_to_greedy(self):
        rng = random.Random(3)
        entries = [
            (rng.random() < 0.3, set(rng.sample(range(40), rng.randint(2, 8))))
            for _ in range(400)
        ]
        instance = make_instance(entries)
        result = ScipyMilpSolver(time_limit=0.0).solve(instance)
        assert not result.optimal
        assert instance.covers_all(result.selected_atom_ids)
        assert result.false_positives == instance.false_positive_weight(
            result.selected_atom_ids
        )


def odd_cycle_entries(length, weights=None):
    """An odd cycle of cover rows ``{i, i+1}`` over ``length`` atoms, with
    ``weights[i]`` false positives on atom ``i`` alone (one each by
    default).  With equal weights the LP optimum is ½ on every atom."""
    weights = weights or [1] * length
    entries = [(True, {atom, (atom + 1) % length}) for atom in range(length)]
    for atom in range(length):
        entries += [(False, {atom})] * weights[atom]
    return entries


class TestLpCertificate:
    def test_integral_relaxation_skips_the_milp(self, milp_calls):
        instance = make_instance(
            [(True, {1, 5}), (True, {2, 5}), (False, {5}), (False, {5})]
        )
        result = ScipyMilpSolver().solve(instance)
        assert result.stats["lp_certificate"] == 1.0
        assert result.optimal
        assert result.selected_atom_ids == {1, 2}
        assert len(milp_calls) == 1
        assert not milp_calls[0]["integrality"].any()

    def test_odd_triangle_falls_back_to_the_milp(self, milp_calls):
        instance = make_instance(odd_cycle_entries(3))
        result = ScipyMilpSolver().solve(instance)
        assert result.stats["lp_certificate"] == 0.0
        assert result.optimal
        assert len(result.selected_atom_ids) == 2
        assert result.false_positives == 2
        assert len(milp_calls) == 2
        assert not milp_calls[0]["integrality"].any()
        assert milp_calls[1]["integrality"].all()
        assert milp_calls[1]["options"]["presolve"] is False
        assert milp_calls[1]["options"]["mip_rel_gap"] == 0.0


def _entries(atom_pool, max_atoms, max_size):
    atoms = st.frozensets(st.integers(0, atom_pool - 1), max_size=max_atoms)
    return st.lists(st.tuples(st.booleans(), atoms), max_size=max_size)


_small_datasets = _entries(12, 6, 30).map(make_dataset)


@st.composite
def _odd_cycle_datasets(draw):
    """An odd cycle (a fractional LP when its weights are equal) plus a
    few random rows, so the MILP fallback runs inside the property too."""
    length = draw(st.sampled_from([3, 5, 7]))
    weights = draw(st.lists(st.integers(1, 3), min_size=length, max_size=length))
    extra = draw(_entries(length + 2, 3, 6))
    return make_dataset(odd_cycle_entries(length, weights) + extra)


@settings(max_examples=60, deadline=None)
@given(st.one_of(_small_datasets, _odd_cycle_datasets()))
def test_reductions_keep_the_optimum(dataset):
    """Every reduction (instance-level and in the scipy formulation)
    and either scipy path (LP certificate or MILP fallback) keeps the
    exact (false positives, atom count) optimum."""
    reduced = build_ilp_instance(dataset)
    plain = build_ilp_instance(dataset, reduce_dominated=False)
    result = ScipyMilpSolver().solve(reduced)
    expected = BranchAndBoundSolver().solve(plain)
    paths = {1.0: "lp certificate", 0.0: "milp fallback", None: "no cover rows"}
    event(paths[result.stats.get("lp_certificate")])
    assert result.optimal
    assert result.false_positives == expected.false_positives
    assert len(result.selected_atom_ids) == len(expected.selected_atom_ids)
    assert plain.covers_all(result.selected_atom_ids)
    fp_weight = plain.false_positive_weight(result.selected_atom_ids)
    assert fp_weight == result.false_positives
    fp_ids = reduced.false_positive_test_ids(result.selected_atom_ids)
    assert len(fp_ids) == result.false_positives


def _recorded_problem(dataset):
    """The keyword arguments of the first HiGHS solve of ``dataset``'s
    instance, or ``None`` when the instance has no cover rows."""
    with _recorded_solves() as calls:
        ScipyMilpSolver(time_limit=None).solve(build_ilp_instance(dataset))
    return calls[0] if calls else None


def _public_fields(value):
    return {
        name: getattr(value, name)
        for name in dir(value)
        if not name.startswith("_") and not callable(getattr(value, name))
    }


def _lp_fields(lp):
    matrix = lp.a_matrix_
    arrays = (lp.col_cost_, lp.col_lower_, lp.col_upper_, lp.row_lower_)
    arrays += (lp.row_upper_, matrix.start_, matrix.index_, matrix.value_)
    counts = (lp.num_col_, lp.num_row_, matrix.num_col_, matrix.num_row_)
    return counts, matrix.format_, [list(array) for array in arrays], lp.integrality_


#: One LP and one integral solve, with ``ScipyMilpSolver``'s options.
_SOLVES = [
    (0, {"time_limit": 60.0}),
    (1, {"mip_rel_gap": 0.0, "presolve": False, "time_limit": 60.0}),
]


class TestHighsDriver:
    """The direct binding path gives HiGHS what ``scipy.optimize.milp``
    gives it, so every contract stays byte-identical."""

    @pytest.mark.skipif(highs.load_binding() is None, reason="no _highspy binding")
    @settings(max_examples=30, deadline=None)
    @given(st.one_of(_small_datasets, _odd_cycle_datasets()))
    def test_highs_receives_the_milp_model_and_options(self, dataset):
        problem = _recorded_problem(dataset)
        if problem is None:
            return
        binding = highs.load_binding()
        received = []

        class RecordingHighs(binding._Highs):
            def passOptions(self, options):
                received.append(_public_fields(options))
                return super().passOptions(options)

            def passModel(self, lp):
                received.append(_lp_fields(lp))
                return super().passModel(lp)

        with mock.patch.object(binding, "_Highs", RecordingHighs):
            for integral, options in _SOLVES:
                integrality = np.full(len(problem["c"]), integral)
                arguments = dict(problem, integrality=integrality, options=options)
                highs.solve(**arguments)
                highs.milp_solve(**arguments)
        assert len(received) == 8
        for solve in range(0, 8, 4):
            assert received[solve : solve + 2] == received[solve + 2 : solve + 4]

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(_small_datasets, _odd_cycle_datasets()))
    def test_driver_matches_milp(self, dataset):
        problem = _recorded_problem(dataset)
        if problem is None:
            return
        for integral, options in _SOLVES:
            integrality = np.full(len(problem["c"]), integral)
            arguments = dict(problem, integrality=integrality, options=options)
            direct = highs.solve(**arguments)
            reference = highs.milp_solve(**arguments)
            assert direct.status == reference.status == 0
            assert np.array_equal(direct.x, reference.x)
            assert direct.fun == reference.fun

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(_small_datasets, _odd_cycle_datasets()))
    def test_csc_arrays_match_scipy(self, dataset):
        from scipy.sparse import csc_array, csr_matrix

        problem = _recorded_problem(dataset)
        if problem is None:
            return
        start, index, value = problem["start"], problem["index"], problem["value"]
        shape = (len(problem["row_lower"]), len(problem["c"]))
        # The same entries in a scrambled order, through the old csr path.
        cols = np.repeat(np.arange(shape[1]), np.diff(start))
        order = np.random.default_rng(len(value)).permutation(len(value))
        old = csc_array(
            csr_matrix((value[order], (index[order], cols[order])), shape=shape)
        )
        assert np.array_equal(start, old.indptr)
        assert np.array_equal(index, old.indices)
        assert np.array_equal(value, old.data)
        assert index.dtype == np.int32 and start.dtype == np.int32

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(_small_datasets, _odd_cycle_datasets()))
    def test_milp_fallback_returns_the_same_result(self, dataset):
        instance = build_ilp_instance(dataset)
        direct = ScipyMilpSolver(time_limit=None).solve(instance)
        with mock.patch.object(highs, "load_binding", lambda: None):
            fallback = ScipyMilpSolver(time_limit=None).solve(instance)
        assert fallback == direct


def _digest(parts):
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part if isinstance(part, bytes) else repr(part).encode())
    return digest.hexdigest()


#: The model arrays of a HiGHS solve (:func:`repro.synthesis.highs.solve`).
_PROBLEM_ARRAYS = ("c", "start", "index", "value", "row_lower", "row_upper")


def _problem_digest(problem):
    """SHA-256 over the arrays HiGHS receives, in a fixed dtype."""
    parts = []
    for key in _PROBLEM_ARRAYS:
        dtype = "<i4" if key in ("start", "index") else "<f8"
        parts += [key, np.asarray(problem[key], dtype=dtype).tobytes()]
    return _digest(parts)


def _instance_digest(instance):
    """SHA-256 over every :class:`IlpInstance` field.  Which kept cover
    row receives a subsumed row's test ids is not pinned (nothing reads
    it), so ``cover_test_ids`` enters as its sorted union."""
    return _digest(
        [
            instance.candidate_atom_ids,
            [sorted(atoms) for atoms in instance.cover_sets],
            [(sorted(atoms), weight) for atoms, weight in instance.fp_sets],
            instance.uncoverable_test_ids,
            sorted(itertools.chain.from_iterable(instance.cover_test_ids)),
            instance.fp_test_ids,
            sorted(instance.reduced_rows.items()),
        ]
    )


#: ``(core, template, seed)`` → (instance digest, HiGHS problem digest)
#: of a 2,000-case generated corpus.  A change to the formulation must
#: keep them, or re-record them on purpose.
GOLDEN_FORMULATIONS = {
    ("ibex", "riscv-rv32im", 0): (
        "b77b18b17204f0efcf30eb627dcf4922e666fb0a18875b1205a0458f3b823187",
        "76eaea469a8580d3df3baf17d7ba2e76d362461f893432cf403b908fbfa7995d",
    ),
    ("ibex", "riscv-rv32im", 1): (
        "55c776138d10bdf7aaaee8dceafa39ff6eb42448692537a07f46f2021d205dd9",
        "3d60920531f268ceec8250ac7c1facd9fb0fa924183a9f8fdd3165a51bfe78c0",
    ),
    ("cva6", "riscv-mem", 0): (
        "4eff5d9ee0c52c7afe929d7f8c9e8ac4d6210383075b9cbfadd4d24eb8fe3445",
        "d99b95c07dc78c517fc05fae8aa1c2f5dadf45cd401b87a660ce87dba8adc28f",
    ),
}


@pytest.mark.parametrize(
    "key", sorted(GOLDEN_FORMULATIONS), ids=lambda key: "%s-%s-%d" % key
)
def test_golden_formulation_digests(key):
    """A generated corpus, and a shuffled copy of it, give the instance
    and the HiGHS arrays recorded above."""
    from repro.pipeline import SynthesisPipeline

    core, template, seed = key
    pipeline = SynthesisPipeline().core(core).template(template).budget(2000, seed)
    dataset = pipeline.evaluate()
    results = list(dataset)
    random.Random(7).shuffle(results)
    for corpus in (dataset, EvaluationDataset(results)):
        instance_digest = _instance_digest(build_ilp_instance(corpus))
        problem_digest = _problem_digest(_recorded_problem(corpus))
        assert (instance_digest, problem_digest) == GOLDEN_FORMULATIONS[key]


def _problem_arrays(dataset):
    problem = _recorded_problem(dataset)
    if problem is None:
        return None
    return {key: list(problem[key]) for key in _PROBLEM_ARRAYS}


@settings(max_examples=60, deadline=None)
@given(
    st.one_of(_small_datasets, _odd_cycle_datasets()),
    st.randoms(use_true_random=False),
)
def test_result_order_does_not_change_the_formulation(dataset, rng):
    """The instance and what HiGHS receives are functions of the set of
    results, not of their order."""
    results = list(dataset)
    rng.shuffle(results)
    shuffled = EvaluationDataset(results)
    assert build_ilp_instance(shuffled) == build_ilp_instance(dataset)
    assert _problem_arrays(shuffled) == _problem_arrays(dataset)
