"""``repro.evaluation.backends`` — pluggable work-distribution layers.

The paper fans test-case evaluation out to up to 128 threads; this
package is the seam that fan-out plugs into.  Three backends ship:
``serial`` (the in-process reference), ``multiprocess`` (a forked
process pool, the one in-process pool and the default) and ``workqueue`` (external
workers draining a filesystem queue).  An
:class:`EvaluationExecutor` consumes shard descriptors ``(start_id,
count)`` and streams back batches of
:class:`~repro.evaluation.results.TestCaseResult` — the one result
type in memory; the row form exists only inside the JSONL
checkpoints.  :data:`EXECUTOR_REGISTRY` maps names to backends exactly
like the core/attacker/solver registries, so new distribution
strategies (async, distributed) are one ``register`` call, never a
fork of :func:`evaluate_parallel` or the drivers::

    from repro.evaluation.backends import EXECUTOR_REGISTRY
    EXECUTOR_REGISTRY.register("my-cluster", MyClusterExecutor,
                               description="...")

after which ``SynthesisPipeline().executor("my-cluster")`` and
``repro-synthesize run --executor my-cluster`` accept it.

Shard-manifest checkpointing (:class:`ShardManifest`) rides on the
same seam: completed shards are appended to a JSONL file keyed by the
task identity, so interrupted or budget-extended runs resume by
evaluating only the missing shards.
"""

from repro.evaluation.backends.base import (
    EvaluationExecutor,
    EvaluationTask,
    Shard,
    ShardEvaluator,
    ShardProgress,
    plan_shards,
)
from repro.evaluation.backends.executors import MultiprocessExecutor, SerialExecutor
from repro.evaluation.backends.manifest import ManifestKeyError, ShardManifest
from repro.registry import Registry

#: Every registered evaluation executor, keyed by backend name.
EXECUTOR_REGISTRY = Registry(
    "executor", description="evaluation work-distribution backends"
)
EXECUTOR_REGISTRY.register(
    "serial",
    SerialExecutor,
    description="in-process reference backend (shards in plan order)",
)
EXECUTOR_REGISTRY.register(
    "multiprocess",
    MultiprocessExecutor,
    description="forked process pool, one future per shard",
)


def _workqueue_factory(*args, **kwargs):
    # Imported at call time: repro.service builds on the pipeline and
    # campaign layers, which import this package — a module-level
    # import would cycle.
    from repro.service.workqueue import WorkQueueExecutor

    return WorkQueueExecutor(*args, **kwargs)


#: The workqueue backend runs on external worker processes — see
#: :attr:`EvaluationExecutor.external` for what the flag gates.
_workqueue_factory.external = True

EXECUTOR_REGISTRY.register(
    "workqueue",
    _workqueue_factory,
    description=(
        "distributed filesystem work queue drained by `repro-synthesize "
        "service worker` processes (broker: serve/--queue-dir)"
    ),
)

__all__ = [
    "EXECUTOR_REGISTRY",
    "EvaluationExecutor",
    "EvaluationTask",
    "ManifestKeyError",
    "MultiprocessExecutor",
    "SerialExecutor",
    "Shard",
    "ShardEvaluator",
    "ShardManifest",
    "ShardProgress",
    "plan_shards",
]
