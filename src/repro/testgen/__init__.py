"""Atom-targeted test-case generation (§III-B, §IV-B).

A test case is a pair of programs with a shared, fixed initial
architectural state; the two programs differ only in their middle
section, which is constructed so that one specific contract atom is
likely to distinguish them.

Generation strategies are plugins: :data:`GENERATOR_REGISTRY` maps
string keys (``"random"``, ``"mutate"``, ``"coverage"``) to
:class:`GenerationStrategy` classes, following the same convention
as the core/attacker/solver registries; ``random`` is
:class:`TestCaseGenerator` itself, which the other two build on.  The
adaptive synthesis loop (:mod:`repro.adaptive`) feeds evaluation
results back into a strategy between rounds; the classic fixed-budget
pipeline is the one-round ``random`` special case.
"""

from repro.testgen.testcase import TestCase
from repro.testgen.generator import (
    GenerationStrategy,
    GeneratorConfig,
    TestCaseGenerator,
)
from repro.testgen.strategies import (
    GENERATOR_REGISTRY,
    CoverageStrategy,
    MutateStrategy,
)

__all__ = [
    "GENERATOR_REGISTRY",
    "CoverageStrategy",
    "GenerationStrategy",
    "GeneratorConfig",
    "MutateStrategy",
    "TestCase",
    "TestCaseGenerator",
]
