"""Contract synthesis via 0-1 integer linear programming (§III-D).

Given an evaluation dataset, synthesis selects the subset of template
atoms that (a) distinguishes every attacker-distinguishable test case
whose leak the template can express at all, and (b) minimizes the
number of attacker-indistinguishable test cases that become contract
distinguishable (false positives) — i.e. the most precise correct
contract.

Solver backends are published through :data:`SOLVER_REGISTRY` — the
single source of truth for name-to-solver construction used by the
pipeline API and the CLI.  Names match each class's ``name`` attribute.
"""

from repro.registry import Registry
from repro.synthesis.ilp import IlpInstance, build_ilp_instance
from repro.synthesis.solvers import (
    BranchAndBoundSolver,
    GreedySolver,
    IlpSolver,
    ScipyMilpSolver,
    SolverResult,
)

#: All registered ILP solver backends, keyed by ``IlpSolver.name``.
SOLVER_REGISTRY = Registry("solver", "ILP solver backends")
SOLVER_REGISTRY.register(
    ScipyMilpSolver.name,
    ScipyMilpSolver,
    description="exact 0-1 ILP on HiGHS via scipy's binding (default)",
)
SOLVER_REGISTRY.register(
    BranchAndBoundSolver.name,
    BranchAndBoundSolver,
    description="exact pure-Python branch and bound (no SciPy needed)",
)
SOLVER_REGISTRY.register(
    GreedySolver.name,
    GreedySolver,
    description="weighted set-cover heuristic (ablation baseline)",
)
from repro.synthesis.synthesizer import ContractSynthesizer, SynthesisResult, synthesize
from repro.synthesis.pool import SolvePool
from repro.synthesis.metrics import (
    ClassificationCounts,
    evaluate_contract,
    verify_contract_correctness,
)
from repro.synthesis.ranking import AtomRanking, rank_atoms_by_false_positives

__all__ = [
    "SOLVER_REGISTRY",
    "AtomRanking",
    "BranchAndBoundSolver",
    "ClassificationCounts",
    "ContractSynthesizer",
    "GreedySolver",
    "IlpInstance",
    "IlpSolver",
    "ScipyMilpSolver",
    "SolvePool",
    "SolverResult",
    "SynthesisResult",
    "build_ilp_instance",
    "evaluate_contract",
    "rank_atoms_by_false_positives",
    "synthesize",
    "verify_contract_correctness",
]
