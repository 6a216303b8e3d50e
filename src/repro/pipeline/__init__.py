"""``repro.pipeline`` — the public entry point to the toolchain.

The paper's workflow is one fixed chain: *generate* atom-targeted test
cases, *evaluate* them on a core under an attacker model, *synthesize*
the most precise correct contract by ILP, *verify* it, and report.
:class:`SynthesisPipeline` packages that chain behind a builder-style
API wired entirely through string-keyed plugin registries::

    from repro.pipeline import SynthesisPipeline

    result = (
        SynthesisPipeline()
        .core("ibex")                    # repro.uarch.CORE_REGISTRY
        .attacker("retirement-timing")   # repro.attacker.ATTACKER_REGISTRY
        .template("riscv-rv32im")        # TEMPLATE_REGISTRY
        .restrict("full")                # RESTRICTION_REGISTRY (optional)
        .budget(2000, seed=1)
        .solver("scipy-milp")            # repro.synthesis.SOLVER_REGISTRY
        .run()
    )
    print(result.render())               # dataset, contract, verification, timings
    print(result.contract.summary())

Builder surface
---------------

==============================  ==================================================
``.core(name_or_instance)``     target core model (default ``"ibex"``)
``.attacker(name_or_inst)``     attacker model (default ``"retirement-timing"``)
``.solver(name_or_inst)``       ILP backend (default ``"scipy-milp"``)
``.template(name_or_inst)``     contract template (default ``"riscv-rv32im"``)
``.restrict(name_or_families)`` template restriction (default: none)
``.budget(count, seed)``        test-case budget and generator seed
``.generator(name_or_inst)``    generation strategy (GENERATOR_REGISTRY)
``.adaptive(...)``              coverage-guided rounds (repro.adaptive)
``.fastpath(enabled)``          fast evaluator (default) or ``False`` oracle
``.cache_dir(path)``            dataset cache directory (default: off)
``.verify(count, seed)``        verification budget (default: dataset check)
``.executor(name, ...)``        evaluation backend (default: multiprocess, one pool per run)
``.resume(path_or_True)``       shard-manifest checkpointing and resumption
``.on_shard(callback)``         per-shard :class:`ShardProgress` events
``.trace(path)``                append :mod:`repro.trace` spans to a JSONL file
==============================  ==================================================

Besides ``.run()`` (the full chain, returning :class:`PipelineResult`),
``.evaluate()`` stops after the evaluation phase and returns the
:class:`~repro.evaluation.results.EvaluationDataset` — the experiment
drivers use it to share one evaluated corpus across many synthesis-set
sweeps, exactly as the paper reuses its 2M-test-case evaluation.

Plugins
-------

Each registry lives with the layer that owns the plugin kind (cores in
``repro.uarch``, attackers in ``repro.attacker``, solvers in
``repro.synthesis``, templates/restrictions in
``repro.contracts.riscv_template``); :data:`REGISTRIES` aggregates them
and ``repro-synthesize list`` prints them.  Registering a new scenario
is one call::

    from repro.uarch import CORE_REGISTRY
    CORE_REGISTRY.register("my-core", MyCore, description="...")

after which ``SynthesisPipeline().core("my-core")``, every experiment
driver, and ``repro-synthesize run --core my-core`` accept it.
"""

from repro.pipeline.config import PipelineConfig
from repro.pipeline.pipeline import SynthesisPipeline
from repro.pipeline.result import PhaseTimings, PipelineResult
from repro.pipeline.registries import REGISTRIES, describe_registries
from repro.registry import Registry

__all__ = [
    "PhaseTimings",
    "PipelineConfig",
    "PipelineResult",
    "REGISTRIES",
    "Registry",
    "SynthesisPipeline",
    "describe_registries",
]
