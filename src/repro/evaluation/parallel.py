"""Sharded test-case evaluation over pluggable executor backends.

:func:`evaluate_parallel` is the one orchestration path of the
evaluate step.  The pipeline's default run, every adaptive round,
every executor run and directed verification go through it: the shard
plan is computed once, and every backend consumes the *same* plan
through the *same* per-worker shard loop, with its fault seam, error
attribution and ``shard`` spans.  Every backend runs on one stack,
which forked pool workers inherit: the pipeline, an adaptive round and
directed verification bind the stack they built, and a backend run by
name alone gets one built here from the task, once, before any fork.
The ``multiprocess`` backend runs on the enclosing run's
:class:`~repro.forkpool.ForkPool`, or outside a run on a pool scoped
to the call.  The paper's up-to-128-thread fan-out is the
``multiprocess`` backend.  Completed shards can be checkpointed to a
:class:`~repro.evaluation.backends.ShardManifest` so interrupted or
budget-extended runs resume instead of restarting.

Determinism: the combined dataset equals the sequential
``TestCaseEvaluator.evaluate_many`` output for the same seed, because
test cases are generated per test id (the generator derives a child
RNG from ``(seed, test_id)``), not from a shared stream.  This holds
for every backend and for any shard size, which is what the
executor-equivalence test suite pins down.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Union

from repro.evaluation.backends import (
    EvaluationExecutor,
    EvaluationTask,
    ShardEvaluator,
    ShardManifest,
    ShardProgress,
    bind_executor,
    plan_shards,
)
from repro.evaluation.results import EvaluationDataset
from repro.resilience.quarantine import FailureRecord, FailureSink
from repro.resilience.retry import RetryPolicy, effective_policy
from repro.trace.tracer import Tracer

#: Optional per-shard progress callback.
ProgressCallback = Callable[[ShardProgress], None]


def evaluate_parallel(
    core_name: str,
    count: int,
    seed: int,
    processes: Optional[int] = None,
    shard_size: int = 250,
    use_fastpath: bool = True,
    template_name: Optional[str] = None,
    attacker_name: Optional[str] = None,
    executor: Union[str, EvaluationExecutor] = "multiprocess",
    manifest_path: Optional[str] = None,
    progress: Optional[ProgressCallback] = None,
    generator_name: str = "random",
    generator_state: Optional[str] = None,
    start_id: int = 0,
    retry: Optional[RetryPolicy] = None,
    shard_timeout: Optional[float] = None,
    failure_log_path: Optional[str] = None,
    on_failure: Optional[Callable[[FailureRecord], None]] = None,
    tracer: Optional[Tracer] = None,
) -> EvaluationDataset:
    """Evaluate ``count`` generated test cases on ``core_name`` using
    the named executor backend.  Equivalent to the sequential evaluator
    for the same ``seed``: the backends' result batches are collected
    as they are and ordered by test id, under one header for every
    ``count``, zero included.

    ``executor`` is an :data:`EXECUTOR_REGISTRY` name (``"serial"``,
    ``"multiprocess"``) or a ready-made
    :class:`EvaluationExecutor`, run as a
    :func:`~repro.evaluation.backends.bind_executor` copy; ``processes``
    sizes the backend's worker pool.  A backend runs on its
    bound stack (``SerialExecutor(worker=...)``), or without one on a
    stack built here from the names, once, before any fork.

    ``manifest_path`` enables shard checkpointing: completed shards are
    appended there as JSONL, shards already stored for the same task
    identity are reused instead of re-evaluated, and a manifest written
    for a *different* identity raises rather than mixing corpora.

    ``progress`` receives one :class:`ShardProgress` event per shard —
    resumed shards first, then evaluated shards as the backend yields
    them (in plan order for the in-process backends).

    ``template_name`` and ``attacker_name`` are registry names: they
    key the manifest and name the dataset header, and a stack built
    from the task resolves them (``None`` names the defaults).

    ``generator_name`` picks the ``GENERATOR_REGISTRY`` strategy a
    stack built from the task runs, ``generator_state`` its JSON
    feedback snapshot;
    ``start_id`` offsets the evaluated test-id range to ``[start_id,
    start_id + count)`` — the adaptive loop evaluates round ``r`` as
    one such window.

    ``retry`` and/or ``shard_timeout`` wrap the backend in a
    :class:`~repro.resilience.ResilientExecutor` under their
    :func:`~repro.resilience.retry.effective_policy`: failing shards
    are retried per the policy, hung shards past the soft deadline of
    a ``multiprocess`` sweep are rescheduled on the replacement of the
    pool whose workers the deadline abandoned, and
    shards that exhaust their attempts are quarantined while the run
    continues without their results.  Each failure record goes through
    a :class:`~repro.resilience.FailureSink` (counted, traced, appended
    to the ``failure_log_path`` log when durable, passed to
    ``on_failure``).  Retry settings never enter the task identity,
    so fault-tolerant and plain runs share manifests and produce
    byte-identical datasets.

    ``tracer``, when active, receives the sink's ``failure`` events
    (retries, timeouts, quarantines, downgrades) and one
    ``shard-resumed`` event per manifest-resumed shard; completed
    shard *spans* are emitted by the workers themselves through the
    process-wide tracer installed by the pipeline (fork-inherited into
    pool children).  Tracing never changes results.
    """
    header = dict(
        core_name=core_name,
        template_name=template_name or "riscv-rv32im",
        attacker_name=attacker_name or "retirement-timing",
    )
    if count <= 0:
        return EvaluationDataset([], **header)

    task = EvaluationTask(
        core_name=core_name,
        seed=seed,
        use_fastpath=use_fastpath,
        template_name=template_name,
        attacker_name=attacker_name,
        generator_name=generator_name,
        generator_state=generator_state,
    )
    shards = plan_shards(count, shard_size)
    if start_id:
        shards = [(start_id + shard_start, size) for shard_start, size in shards]
    started = time.perf_counter()

    manifest = (
        ShardManifest(manifest_path, task.identity())
        if manifest_path is not None
        else None
    )
    stored = manifest.stored(shards) if manifest is not None else {}
    pending = [shard for shard in shards if shard not in stored]

    executor = bind_executor(executor, processes)
    if pending and executor.worker is None:
        # Run by name alone: the one stack, built before any fork (a
        # fully-resumed run never builds one).
        executor.worker = ShardEvaluator.from_task(task)
    policy = effective_policy(retry, shard_timeout)
    if policy is not None:
        # Imported here: the resilient wrapper itself builds on the
        # backend modules this package initializes.
        from repro.resilience.executor import ResilientExecutor

        executor = ResilientExecutor(
            executor,
            policy=policy,
            shard_timeout=shard_timeout,
            sink=FailureSink(tracer, on_failure, failure_log_path, task.identity()),
        )

    completed_shards = 0
    completed_cases = 0
    results = []

    def emit(shard, resumed: bool) -> None:
        nonlocal completed_shards, completed_cases
        completed_shards += 1
        completed_cases += shard[1]
        if progress is not None:
            progress(
                ShardProgress(
                    shard=shard,
                    completed_shards=completed_shards,
                    total_shards=len(shards),
                    completed_cases=completed_cases,
                    total_cases=count,
                    resumed=resumed,
                    elapsed_seconds=time.perf_counter() - started,
                )
            )

    for shard in shards:
        if shard in stored:
            results.extend(stored[shard])
            if tracer is not None and tracer.active:
                tracer.event("shard-resumed", start_id=shard[0], count=shard[1])
            emit(shard, resumed=True)
    if pending:
        for shard, batch in executor.run(task, pending):
            if manifest is not None:
                manifest.append(shard, batch)
            results.extend(batch)
            emit(shard, resumed=False)

    results.sort(key=lambda result: result.test_id)
    return EvaluationDataset(results, **header)
