"""Shared plumbing for experiment drivers — a thin layer over
:mod:`repro.pipeline`.

The drivers describe *what* to run (core, attacker, solver, budget,
seed); the pipeline does the running and the dataset caching.  Core
construction goes through :data:`repro.uarch.CORE_REGISTRY`, so
``uarch/`` is the single source of truth for available cores.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from repro.attacker.base import Attacker
from repro.contracts.riscv_template import build_riscv_template
from repro.contracts.template import ContractTemplate
from repro.evaluation.evaluator import TestCaseEvaluator
from repro.evaluation.results import EvaluationDataset
from repro.pipeline import SynthesisPipeline
from repro.uarch import CORE_REGISTRY
from repro.uarch.core import Core


def build_core(name: str) -> Core:
    """Instantiate a registered core model by name."""
    return CORE_REGISTRY.create(name)


def shared_template() -> ContractTemplate:
    """The full RV32IM template used by all experiments."""
    return build_riscv_template()


def experiment_pipeline(
    config,
    core_name: str,
    template: Union[str, ContractTemplate],
    count: int,
    seed: int,
) -> SynthesisPipeline:
    """A pipeline configured the way the experiment drivers share it:
    attacker/solver/executor from the :class:`ExperimentConfig`,
    dataset cache under the results directory.  A template instance
    evaluates under every in-process executor; the ``workqueue``
    backend needs it by registry name."""
    return (
        SynthesisPipeline()
        .core(core_name)
        .attacker(config.attacker)
        .solver(config.solver)
        .template(template)
        .budget(count, seed)
        .cache_dir(config.cache_dir())
        .executor(config.executor)
    )


def evaluate_dataset(
    core_name: str,
    template: ContractTemplate,
    count: int,
    seed: int,
    cache_dir: Optional[str] = None,
    attacker: Optional[Union[str, Attacker]] = None,
) -> Tuple[EvaluationDataset, Optional[TestCaseEvaluator]]:
    """Generate and evaluate ``count`` test cases on ``core_name``.

    Returns ``(dataset, evaluator)``; the evaluator carries the phase
    timers (``None`` when the dataset was loaded from cache).  Caching
    mirrors the paper's reuse of one big evaluated corpus across all
    synthesis-set sweeps.
    """
    pipeline = (
        SynthesisPipeline()
        .core(core_name)
        .template(template)
        .budget(count, seed)
        .cache_dir(cache_dir)
    )
    if attacker is not None:
        pipeline.attacker(attacker)
    return pipeline.evaluate_with_stats()
