"""Shared plumbing for experiment drivers — a thin layer over
:mod:`repro.pipeline`.

The drivers describe *what* to run (core, attacker, solver, budget,
seed); the pipeline does the running and the dataset caching.
"""

from __future__ import annotations

from typing import Union

from repro.contracts.template import ContractTemplate
from repro.pipeline import SynthesisPipeline


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
    evaluates under every executor."""
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

