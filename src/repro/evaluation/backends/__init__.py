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

Every in-process backend (one whose :attr:`EvaluationExecutor.external`
is false) runs on one :class:`ShardEvaluator` built in the process that
starts the evaluation and bound to a :func:`bind_executor` copy of the
backend; forked workers inherit it.  Only an external backend's workers
rebuild the stack from the :class:`EvaluationTask` names.

Shard-manifest checkpointing (:class:`ShardManifest`) rides on the
same seam: completed shards are appended to a JSONL file keyed by the
task identity, so interrupted or budget-extended runs resume by
evaluating only the missing shards.
"""

import copy
from typing import Optional, Union

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


def bind_executor(
    executor: Union[str, EvaluationExecutor], processes: Optional[int] = None
) -> EvaluationExecutor:
    """The backend to run ``executor`` on: a registry name as a fresh
    backend, an in-process instance as a shallow copy (the caller's is
    never mutated), sized by ``processes`` unless it has its own count.
    The caller binds the copy's :attr:`~EvaluationExecutor.worker` to
    its stack.  An external instance runs as given, so its counters
    stay readable on the caller's instance."""
    if isinstance(executor, str):
        return EXECUTOR_REGISTRY.create(executor, processes=processes)
    if executor.external:
        return executor
    executor = copy.copy(executor)
    if executor.processes is None:
        executor.processes = processes
    return executor


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
    "bind_executor",
    "plan_shards",
]
