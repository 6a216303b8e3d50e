"""Experiment sizing and paths."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import List, Optional


def _scale() -> float:
    try:
        return float(os.environ.get("REPRO_SCALE", "1.0"))
    except ValueError:
        return 1.0


def _scaled(count: int, scale: float, minimum: int = 10) -> int:
    return max(minimum, int(round(count * scale)))


@dataclass
class ExperimentConfig:
    """Shared sizing for all experiment drivers.

    ``scale`` multiplies every test-case count; set the ``REPRO_SCALE``
    environment variable (e.g. ``0.2`` for quick runs, ``10`` for
    closer-to-paper sizes) or pass ``scale`` explicitly.
    """

    scale: float = field(default_factory=_scale)
    #: Synthesis test-case budget (the paper's 100,000).
    synthesis_test_cases: int = 4000
    #: Held-out evaluation budget (the paper's 2,000,000).
    evaluation_test_cases: int = 12000
    #: CVA6 synthesis budget (the paper's 500,000); smaller because the
    #: CVA6 ILP instances are denser.
    cva6_synthesis_test_cases: int = 3000
    #: Seeds: synthesis and evaluation sets must be disjoint streams.
    synthesis_seed: int = 1
    evaluation_seed: int = 2
    #: Where datasets are cached and results written.
    results_dir: str = "results"
    cache: bool = True
    #: Pipeline plugins (registry names) shared by every driver.  The
    #: defaults reproduce the paper; the CLI's ``--attacker``,
    #: ``--solver``, and ``--executor`` flags override them.
    attacker: str = "retirement-timing"
    solver: str = "scipy-milp"
    #: Evaluation executor backend; ``None`` keeps the pipeline's
    #: default ``multiprocess`` pool over the stack built in setup.
    executor: Optional[str] = None

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        # Fail fast on unknown plugin names (the registries raise a
        # ValueError listing the registered choices).
        from repro.attacker import ATTACKER_REGISTRY
        from repro.evaluation.backends import EXECUTOR_REGISTRY
        from repro.synthesis import SOLVER_REGISTRY

        ATTACKER_REGISTRY.get(self.attacker)
        SOLVER_REGISTRY.get(self.solver)
        if self.executor is not None:
            EXECUTOR_REGISTRY.get(self.executor)
        self.synthesis_test_cases = _scaled(self.synthesis_test_cases, self.scale)
        self.evaluation_test_cases = _scaled(self.evaluation_test_cases, self.scale)
        self.cva6_synthesis_test_cases = _scaled(
            self.cva6_synthesis_test_cases, self.scale
        )

    def synthesis_prefixes(self) -> List[int]:
        """Fig. 2's x-axis: synthesis-set sizes."""
        total = self.synthesis_test_cases
        prefixes = []
        value = max(10, total // 64)
        while value < total:
            prefixes.append(value)
            value *= 2
        prefixes.append(total)
        return prefixes

    def sensitivity_prefixes(self) -> List[int]:
        """Fig. 3's log-scale x-axis."""
        total = self.synthesis_test_cases
        prefixes = []
        value = 1
        while value < total:
            prefixes.append(value)
            value = max(value + 1, int(value * 3))
        prefixes.append(total)
        return prefixes

    def ensure_results_dir(self) -> str:
        os.makedirs(self.results_dir, exist_ok=True)
        return self.results_dir

    def cache_dir(self) -> Optional[str]:
        if not self.cache:
            return None
        path = os.path.join(self.results_dir, "cache")
        os.makedirs(path, exist_ok=True)
        return path
