"""The built-in in-process evaluation executors.

Two backends behind one interface, both on the :class:`ShardEvaluator`
bound to them (see :func:`~repro.evaluation.backends.bind_executor`):

``serial``
    The bound stack in the calling process, shards in plan order.  The
    reference backend — everything else must match it — and the
    degenerate target the pool falls back to for one worker or one
    shard, so there is exactly one shard loop to get right.

``multiprocess``
    One future per shard (the paper's up-to-128-thread fan-out) on the
    run's :class:`~repro.forkpool.ForkPool`, or outside a run on a pool
    scoped to the call, sized by the CPUs this process may run on.
    Workers inherit the bound stack through ``fork``, so
    instance-configured plugins fan out too and nothing is rebuilt;
    their simulation and extraction timers fold back into it.  Each
    submission carries what a long-lived worker cannot have inherited:
    the shard's attempt number and the adaptive strategy's state.
    Shards are yielded in plan order, each as soon as it and every
    shard before it have completed.  The sweep optionally enforces a
    per-shard soft deadline, which is how
    :class:`~repro.resilience.ResilientExecutor` abandons a hung
    worker.

The cores are pure Python (GIL-bound), so a thread pool is slower than
``serial`` and no backend offers one.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, wait
from itertools import islice
from typing import Iterator, Optional, Sequence

from repro.evaluation.backends.base import (
    EvaluationExecutor,
    EvaluationTask,
    Shard,
    ShardEvaluator,
    ShardResults,
)
from repro.forkpool import ForkPool, current_pool, result
from repro.metrics.registry import current_metrics
from repro.resilience.errors import ShardExecutionError, ShardTimeoutError
from repro.resilience.injection import current_attempt, maybe_inject
from repro.resilience.retry import is_retryable
from repro.trace.tracer import current_tracer

#: In a pool worker: the generator state each stack last restored.
_restored: dict = {}


def _evaluate_shard(worker: ShardEvaluator, shard: Shard, attempt: int) -> ShardResults:
    """The one shard-evaluation call every backend funnels through.

    Hosts the ``"shard"`` fault-injection seam (``attempt`` is the
    shard's attempt number), the shard trace span (the process-wide
    tracer is fork-inherited from the parent that installed it, so pool
    workers append to the same trace file), and wraps any worker error
    in a :class:`ShardExecutionError` naming ``(start_id, count)`` — a
    bare exception crossing a pool boundary would otherwise carry no
    clue which shard died.
    """
    tracer = current_tracer()
    if tracer.path is None:
        return _evaluate_shard_inner(worker, shard, attempt)
    try:
        with tracer.span("shard", start_id=shard[0], count=shard[1]):
            return _evaluate_shard_inner(worker, shard, attempt)
    finally:
        # Pool workers inherit the installed registry by fork; a
        # periodic snapshot per shard bounds how much of a long sweep's
        # telemetry a dying worker can take with it.
        current_metrics().maybe_flush()


def _evaluate_shard_inner(
    worker: ShardEvaluator, shard: Shard, attempt: int
) -> ShardResults:
    try:
        maybe_inject("shard", shard=shard, attempt=attempt)
        return shard, worker.evaluate(shard)
    except ShardExecutionError:
        raise
    except Exception as error:
        # ``fatal`` crosses the pool's pickle boundary; ``__cause__``
        # does not, so the classification travels in the flag.
        raise ShardExecutionError(
            shard, cause=repr(error), fatal=not is_retryable(error), original=error
        ) from error


def _evaluate_in_process(
    worker: ShardEvaluator, shard: Shard, attempt: int, generator_state: Optional[str]
):
    """One pool shard: its results and the child-side simulation and
    extraction seconds it took, for the parent to fold back.  The
    worker's generator first takes ``generator_state`` unless it
    already holds it: the parent's strategy moves on after the fork."""
    if generator_state is not None and _restored.get(id(worker)) != generator_state:
        worker.generator.restore(json.loads(generator_state))
        _restored[id(worker)] = generator_state
    evaluator = worker.evaluator
    simulation = evaluator.simulation_seconds
    extraction = evaluator.extraction_seconds
    evaluated = _evaluate_shard(worker, shard, attempt)
    return evaluated, (
        evaluator.simulation_seconds - simulation,
        evaluator.extraction_seconds - extraction,
    )


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one (a pinned container sees fewer CPUs than the
    host has), else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return multiprocessing.cpu_count()


def default_processes(requested: Optional[int]) -> int:
    """A pool's worker count: ``requested`` when set, else the usable
    CPUs, at most 8."""
    return requested or min(usable_cpus(), 8)


class SerialExecutor(EvaluationExecutor):
    """In-process evaluation on :attr:`worker`, shards in plan order
    (the reference)."""

    name = "serial"

    def run(
        self, task: EvaluationTask, shards: Sequence[Shard]
    ) -> Iterator[ShardResults]:
        for shard in shards:
            yield _evaluate_shard(self.worker, shard, current_attempt(shard))


class MultiprocessExecutor(EvaluationExecutor):
    """Forked process pool, one future per shard, yielded in plan order.

    The run's pool when it holds :attr:`worker`, else a pool of
    ``processes`` workers scoped to the call.  The children inherit
    :attr:`worker` through ``fork``; its timers also cover the shards
    the children evaluated.
    """

    name = "multiprocess"

    def run(
        self,
        task: EvaluationTask,
        shards: Sequence[Shard],
        shard_timeout: Optional[float] = None,
    ) -> Iterator[ShardResults]:
        """Evaluate ``shards`` in the pool.

        With ``shard_timeout`` set, a shard that runs past the soft
        deadline raises :class:`ShardTimeoutError` for it.  A hung
        worker cannot be interrupted, so the pool is abandoned and the
        caller re-sweeps the survivors on its replacement.
        """
        pool = current_pool(self.worker)
        scoped = pool is None
        if scoped:
            pool = ForkPool(default_processes(self.processes), (self.worker,))
        if shard_timeout is None and (pool.workers == 1 or len(shards) <= 1):
            # One worker (or one shard) degenerates to the serial
            # backend — the *same* shard loop, not a parallel
            # reimplementation that could drift.  A deadline still
            # needs a pool: only a pool can abandon a hung shard.
            yield from SerialExecutor(worker=self.worker).run(task, shards)
            return
        waiting: dict = {}
        started: dict = {}
        # Completed shards wait here until every shard before them in
        # the plan has been yielded.
        finished: dict = {}
        plan = iter(shards)
        head = next(plan, None)
        try:
            for shard in shards:
                args = (shard, current_attempt(shard), task.generator_state)
                waiting[pool.submit(_evaluate_in_process, self.worker, *args)] = shard
            while waiting:
                # Workers take calls in submission order, so only the
                # oldest ``workers`` unfinished futures can be running:
                # they are the only ones to wait on and to clock.  (A
                # future's own ``running()`` flag turns true as soon as
                # it enters the pool's call queue, before any worker
                # picks it up.  An adaptive run's solves on the same
                # workers can hold a clocked shard back.)
                window = list(islice(waiting, pool.workers))
                timeout = None
                if shard_timeout is not None:
                    now = time.monotonic()
                    for future in window:
                        started.setdefault(future, now)
                    oldest = min(window, key=started.__getitem__)
                    timeout = max(0.0, started[oldest] + shard_timeout - now)
                done, _ = wait(window, timeout=timeout, return_when=FIRST_COMPLETED)
                if not done:
                    # Only a timed-out wait comes back empty-handed:
                    # the oldest running shard is past its deadline.
                    current_metrics().counter("resilience.timeouts").inc()
                    raise ShardTimeoutError(waiting[oldest], shard_timeout)
                for future in done:
                    finished[waiting.pop(future)] = self._collect(future)
                    started.pop(future, None)
                while head in finished:
                    yield finished.pop(head)
                    head = next(plan, None)
        except BaseException:
            # Shards no worker took yet are cancelled.  Without a
            # deadline the running ones finish before the error
            # propagates, so no worker is busy with a failed sweep.
            # Under a deadline a hung shard may occupy a worker that
            # cannot be joined: the pool's workers are terminated.
            for future in waiting:
                future.cancel()
            if shard_timeout is None:
                wait(waiting)
            else:
                pool.close()
            raise
        finally:
            if scoped:
                pool.close()

    def _collect(self, future) -> ShardResults:
        """A finished shard's results, its child timers folded into
        :attr:`worker`."""
        evaluated, (simulation, extraction) = result(future)
        self.worker.evaluator.simulation_seconds += simulation
        self.worker.evaluator.extraction_seconds += extraction
        return evaluated
