"""Tests for the generic plugin registry and the built-in registries."""

import pytest

from repro.attacker import ATTACKER_REGISTRY
from repro.attacker.base import Attacker
from repro.contracts.riscv_template import (
    BASE_FAMILIES,
    FULL_FAMILIES,
    RESTRICTION_REGISTRY,
    TEMPLATE_REGISTRY,
)
from repro.contracts.template import ContractTemplate
from repro.pipeline import SynthesisPipeline
from repro.registry import Registry
from repro.synthesis import SOLVER_REGISTRY
from repro.synthesis.solvers import IlpSolver
from repro.uarch import CORE_REGISTRY
from repro.uarch.core import Core

pytestmark = pytest.mark.pipeline


class TestRegistry:
    def test_register_create_list_round_trip(self):
        registry = Registry("widget")
        registry.register("a", lambda: "made-a", description="first")
        registry.register("b", lambda: "made-b")
        assert registry.names() == ["a", "b"]
        assert registry.create("a") == "made-a"
        assert registry.create("b") == "made-b"
        assert "a" in registry and "c" not in registry
        assert len(registry) == 2
        assert list(registry) == ["a", "b"]
        assert registry.describe("a") == "first"

    def test_decorator_registration(self):
        registry = Registry("widget")

        @registry.register("decorated")
        def factory():
            """A decorated factory."""
            return 42

        assert factory() == 42  # decorator returns the factory unchanged
        assert registry.create("decorated") == 42
        assert registry.describe("decorated") == "A decorated factory."

    def test_create_forwards_arguments(self):
        registry = Registry("widget")
        registry.register("adder", lambda a, b=0: a + b)
        assert registry.create("adder", 2, b=3) == 5

    def test_duplicate_name_rejected(self):
        registry = Registry("widget")
        registry.register("x", lambda: 1)
        with pytest.raises(ValueError, match="already registered"):
            registry.register("x", lambda: 2)
        # Explicit overwrite is allowed.
        registry.register("x", lambda: 2, overwrite=True)
        assert registry.create("x") == 2

    def test_unknown_name_lists_choices(self):
        registry = Registry("widget")
        registry.register("alpha", lambda: 1)
        registry.register("beta", lambda: 2)
        with pytest.raises(ValueError) as excinfo:
            registry.create("gamma")
        message = str(excinfo.value)
        assert "unknown widget 'gamma'" in message
        assert "alpha" in message and "beta" in message

    def test_unregister(self):
        registry = Registry("widget")
        registry.register("x", lambda: 1)
        registry.unregister("x")
        assert "x" not in registry
        with pytest.raises(ValueError):
            registry.unregister("x")


class TestBuiltinRegistries:
    def test_core_registry(self):
        assert {"ibex", "cva6", "ibex-dcache"} <= set(CORE_REGISTRY.names())
        for name in ("ibex", "cva6"):
            core = CORE_REGISTRY.create(name)
            assert isinstance(core, Core)
            assert core.name == name

    def test_attacker_registry(self):
        assert {"retirement-timing", "total-time", "cache-state"} <= set(
            ATTACKER_REGISTRY.names()
        )
        for name in ATTACKER_REGISTRY.names():
            attacker = ATTACKER_REGISTRY.create(name)
            assert isinstance(attacker, Attacker)
            assert attacker.name == name

    def test_solver_registry(self):
        assert {"scipy-milp", "branch-and-bound", "greedy"} <= set(
            SOLVER_REGISTRY.names()
        )
        for name in SOLVER_REGISTRY.names():
            solver = SOLVER_REGISTRY.create(name)
            assert isinstance(solver, IlpSolver)
            assert solver.name == name

    def test_template_registry(self):
        template = TEMPLATE_REGISTRY.create("riscv-rv32im")
        assert isinstance(template, ContractTemplate)
        assert template.name == "riscv-rv32im"
        zref = TEMPLATE_REGISTRY.create("riscv-rv32im-zref")
        assert len(zref) > len(template)

    def test_restriction_registry(self):
        assert tuple(RESTRICTION_REGISTRY.create("base")) == BASE_FAMILIES
        assert tuple(RESTRICTION_REGISTRY.create("full")) == FULL_FAMILIES
        assert tuple(RESTRICTION_REGISTRY.create("IL+RL+ML")) == BASE_FAMILIES
        assert (
            tuple(RESTRICTION_REGISTRY.create("IL+RL+ML+AL+BL+DL")) == FULL_FAMILIES
        )

    def test_build_core_goes_through_registry(self):
        def build_core(name):
            return SynthesisPipeline().core(name).resolve_core()

        assert build_core("ibex").name == "ibex"
        with pytest.raises(ValueError) as excinfo:
            build_core("rocket")
        # Unknown-core errors list the registered choices.
        assert "ibex" in str(excinfo.value) and "cva6" in str(excinfo.value)
