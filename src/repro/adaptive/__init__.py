"""Adaptive test generation: coverage-guided synthesis loops (§IV-B+).

The fixed-budget pipeline generates its whole corpus up front and
throws the evaluator's per-atom feedback away.  :class:`AdaptiveLoop`
closes that loop: rounds of ``batch``-sized generation through a
``GENERATOR_REGISTRY`` strategy, per-atom coverage fed back between
rounds, per-round ILP synthesis (each round solves its own cumulative
dataset, so its contract never depends on an earlier round's), pluggable
:data:`STOPPING_REGISTRY` convergence rules, and round-granularity
checkpointing via :class:`AdaptiveManifest`.

The loop runs one :class:`~repro.pipeline.config.PipelineConfig` with
``adaptive`` set to an :class:`~repro.pipeline.config.AdaptivePlan`
(rounds, batch, stopping rules); its keywords are runtime plumbing
only.  Front-end surface: ``SynthesisPipeline.adaptive(generator=...,
rounds=..., batch=..., stop=...)``, whose ``run()`` hands the loop its
own configuration; campaign grids sweep strategies through the
``generators`` axis of ``CampaignSpec``.
"""

from repro.adaptive.loop import AdaptiveLoop, AdaptiveResult, RoundRecord
from repro.adaptive.manifest import AdaptiveKeyError, AdaptiveManifest
from repro.adaptive.stopping import (
    STOPPING_REGISTRY,
    AdaptiveState,
    BudgetRule,
    ContractStableRule,
    FullCoverageRule,
    StoppingRule,
    resolve_stopping_rules,
)

__all__ = [
    "STOPPING_REGISTRY",
    "AdaptiveKeyError",
    "AdaptiveLoop",
    "AdaptiveManifest",
    "AdaptiveResult",
    "AdaptiveState",
    "BudgetRule",
    "ContractStableRule",
    "FullCoverageRule",
    "RoundRecord",
    "StoppingRule",
    "resolve_stopping_rules",
]
