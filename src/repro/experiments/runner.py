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
from repro.contracts.riscv_template import TEMPLATE_REGISTRY, build_riscv_template
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
    dataset cache under the results directory."""
    pipeline = (
        SynthesisPipeline()
        .core(core_name)
        .attacker(config.attacker)
        .solver(config.solver)
        .template(template)
        .budget(count, seed)
        .cache_dir(config.cache_dir())
    )
    if config.executor is not None:
        # Executor workers rebuild plugins by registry name.  Drivers
        # share one template *instance*; when it is equal to what its
        # registered name rebuilds, ship the name — otherwise (a
        # bespoke instance, even one reusing a registered name) only
        # the default run, whose workers inherit the instance itself,
        # is sound.
        if isinstance(template, str):
            pipeline.executor(config.executor)
        elif _matches_registered_template(template):
            pipeline.template(template.name).executor(config.executor)
    return pipeline


def _matches_registered_template(template: ContractTemplate) -> bool:
    """Whether a worker rebuilding ``template.name`` from the registry
    gets the same atoms — the name alone proves nothing (e.g.
    ``build_riscv_template(max_distance=8)`` keeps the default name)."""
    if template.name not in TEMPLATE_REGISTRY:
        return False
    registered = TEMPLATE_REGISTRY.create(template.name)
    return [atom.name for atom in template] == [atom.name for atom in registered]


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
