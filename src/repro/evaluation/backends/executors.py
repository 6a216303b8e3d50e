"""The built-in in-process evaluation executors.

Two backends behind one interface:

``serial``
    One :class:`ShardEvaluator` in the calling process, shards in plan
    order.  The reference backend — everything else must match it —
    and the degenerate target the pool falls back to for one worker or
    one shard, so there is exactly one shard loop to get right.

``multiprocess``
    A forked ``concurrent.futures.ProcessPoolExecutor`` submitting one
    future per shard (the paper's up-to-128-thread fan-out), sized by
    the CPUs this process may run on.  Workers are initialized once:
    from the task's registry names, or — for a run without an
    executor, which hands over the stack it built in setup — by
    inheriting that stack through ``fork``, so instance-configured
    plugins fan out too and nothing is rebuilt.  Shards are yielded in
    plan order, each as soon as it and every shard before it have
    completed.  The sweep optionally enforces a per-shard soft
    deadline, which is how :class:`~repro.resilience.ResilientExecutor`
    abandons a hung worker.

The cores are pure Python (GIL-bound), so a thread pool is slower than
``serial`` and no backend offers one.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from itertools import islice
from typing import Iterator, Optional, Sequence

from repro.evaluation.backends.base import (
    EvaluationExecutor,
    EvaluationTask,
    Shard,
    ShardEvaluator,
    ShardResults,
)
from repro.metrics.registry import current_metrics
from repro.resilience.errors import ShardExecutionError, ShardTimeoutError
from repro.resilience.injection import maybe_inject
from repro.resilience.retry import is_retryable
from repro.trace.tracer import current_tracer

#: Per-process worker state for the process pool; populated by the
#: pool initializer in each forked child.
_worker_state: dict = {}


def _initialize_process(task: EvaluationTask, worker: Optional[ShardEvaluator]) -> None:
    # Under ``fork`` the initializer's arguments are inherited, never
    # pickled: a parent's prebuilt stack reaches the child as it is.
    _worker_state["worker"] = worker or ShardEvaluator.from_task(task)


def _evaluate_shard(worker: ShardEvaluator, shard: Shard) -> ShardResults:
    """The one shard-evaluation call every backend funnels through.

    Hosts the ``"shard"`` fault-injection seam, the shard trace span
    (the process-wide tracer is fork-inherited from the parent that
    installed it, so pool workers append to the same trace file), and
    wraps any worker error in a :class:`ShardExecutionError` naming
    ``(start_id, count)`` — a bare exception crossing a pool boundary
    would otherwise carry no clue which shard died.
    """
    tracer = current_tracer()
    if tracer.path is None:
        return _evaluate_shard_inner(worker, shard)
    try:
        with tracer.span("shard", start_id=shard[0], count=shard[1]):
            return _evaluate_shard_inner(worker, shard)
    finally:
        # Pool workers inherit the installed registry by fork; a
        # periodic snapshot per shard bounds how much of a long sweep's
        # telemetry a dying worker can take with it.
        current_metrics().maybe_flush()


def _evaluate_shard_inner(worker: ShardEvaluator, shard: Shard) -> ShardResults:
    try:
        maybe_inject("shard", shard=shard)
        return shard, worker.evaluate(shard)
    except ShardExecutionError:
        raise
    except Exception as error:
        # ``fatal`` crosses the pool's pickle boundary; ``__cause__``
        # does not, so the classification travels in the flag.
        raise ShardExecutionError(
            shard, cause=repr(error), fatal=not is_retryable(error), original=error
        ) from error


def _evaluate_in_process(shard: Shard):
    """One pool shard: its results and the child-side simulation and
    extraction seconds it took, for the parent to fold back."""
    worker: ShardEvaluator = _worker_state["worker"]
    evaluator = worker.evaluator
    simulation = evaluator.simulation_seconds
    extraction = evaluator.extraction_seconds
    evaluated = _evaluate_shard(worker, shard)
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
    """In-process evaluation, shards in plan order (the reference).

    ``worker`` is a prebuilt :class:`ShardEvaluator`, which may hold
    plugin instances no registry name rebuilds; without one, each
    :meth:`run` builds its stack from the task.
    """

    name = "serial"

    def __init__(
        self,
        processes: Optional[int] = None,
        worker: Optional[ShardEvaluator] = None,
    ):
        super().__init__(processes)
        self.worker = worker

    def run(
        self, task: EvaluationTask, shards: Sequence[Shard]
    ) -> Iterator[ShardResults]:
        worker = self.worker or ShardEvaluator.from_task(task)
        for shard in shards:
            yield _evaluate_shard(worker, shard)


class MultiprocessExecutor(EvaluationExecutor):
    """Forked process pool, one future per shard, yielded in plan order.

    ``worker`` is a prebuilt :class:`ShardEvaluator` the pool's
    children inherit through ``fork`` instead of rebuilding their stack
    from the task; its timers then also cover the shards the children
    evaluated.
    """

    name = "multiprocess"

    def __init__(
        self,
        processes: Optional[int] = None,
        worker: Optional[ShardEvaluator] = None,
    ):
        super().__init__(processes)
        self.worker = worker

    def run(
        self,
        task: EvaluationTask,
        shards: Sequence[Shard],
        shard_timeout: Optional[float] = None,
    ) -> Iterator[ShardResults]:
        """Evaluate ``shards`` in the pool.

        With ``shard_timeout`` set, a shard that runs past the soft
        deadline raises :class:`ShardTimeoutError` for it.  A hung
        worker cannot be interrupted, so the pool is abandoned without
        waiting and the caller re-sweeps the survivors in a fresh one.
        """
        workers = default_processes(self.processes)
        if shard_timeout is None and (workers == 1 or len(shards) <= 1):
            # One worker (or one shard) degenerates to the serial
            # backend — the *same* shard loop, not a parallel
            # reimplementation that could drift.  A deadline still
            # needs a pool: only a pool can abandon a hung shard.
            yield from SerialExecutor(worker=self.worker).run(task, shards)
            return
        pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_initialize_process,
            initargs=(task, self.worker),
        )
        waiting = {pool.submit(_evaluate_in_process, shard): shard for shard in shards}
        started: dict = {}
        # Completed shards wait here until every shard before them in
        # the plan has been yielded.
        finished: dict = {}
        plan = iter(shards)
        head = next(plan, None)
        try:
            while waiting:
                # Workers take shards in submission order, so only the
                # oldest ``workers`` unfinished futures can be running:
                # they are the only ones to wait on and to clock.  (A
                # future's own ``running()`` flag turns true as soon as
                # it enters the pool's call queue, before any worker
                # picks it up.)
                window = list(islice(waiting, workers))
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
            # Without a deadline the other workers finish their shards
            # and exit before the error propagates, so no worker
            # outlives a failed sweep.  Under a deadline a hung shard
            # may occupy a worker that cannot be joined: leave that
            # pool to drain in the background and move on.
            pool.shutdown(wait=shard_timeout is None, cancel_futures=True)
            raise
        pool.shutdown()

    def _collect(self, future) -> ShardResults:
        """A finished shard's results, its child timers folded into
        :attr:`worker`.

        A shard error keeps its original exception as ``__cause__``
        when that survived the pickle boundary, with the child's
        traceback chained behind it."""
        try:
            evaluated, (simulation, extraction) = future.result()
        except ShardExecutionError as error:
            if error.original is not None:
                error.original.__cause__ = error.__cause__
                error.__cause__ = error.original
            raise
        if self.worker is not None:
            self.worker.evaluator.simulation_seconds += simulation
            self.worker.evaluator.extraction_seconds += extraction
        return evaluated
