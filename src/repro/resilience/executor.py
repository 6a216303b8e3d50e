"""The resilient executor: retry, watchdog timeouts, quarantine.

:class:`ResilientExecutor` wraps any registered evaluation backend and
adds the fault semantics the inner backends deliberately do not have:

- **shard retry** — a sweep that dies with a
  :class:`~repro.resilience.errors.ShardExecutionError` costs exactly
  one attempt for the shard it names; the survivors are re-swept and
  already-yielded shards are never re-evaluated;
- **soft deadlines** — with ``shard_timeout`` set, the ``multiprocess``
  sweep abandons its pool's workers when a shard runs past its
  deadline (a hung worker cannot be interrupted), and the pool's
  replacement serves the next attempt (see :mod:`repro.forkpool`);
- **quarantine** — a shard that exhausts its attempts becomes a
  durable :class:`~repro.resilience.quarantine.FailureRecord` (kind
  ``"shard"``) and the run continues without its results;
- **downgrade** — repeated pool-level breakage (no shard attribution)
  swaps the inner backend for the serial reference executor and logs
  the downgrade instead of crashing the run.  The serial executor runs
  on the inner backend's stack; only a work-queue backend, which has
  none, leaves it to be rebuilt from the task's names.

The policy is explicit (callers resolve it with
:func:`~repro.resilience.retry.effective_policy`), and every record
goes to the :class:`~repro.resilience.quarantine.FailureSink` the
executor was given (counter, trace event, quarantine log, callback).

Determinism: retries re-run the same ``(start_id, count)`` descriptor
under the same task, and test cases are generated per test id, so a
run that survives faults yields results byte-identical to a fault-free
run — the property the fault-matrix suite pins.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence

from repro.evaluation.backends.base import (
    EvaluationExecutor,
    EvaluationTask,
    Shard,
    ShardEvaluator,
    ShardResults,
)
from repro.evaluation.backends.executors import MultiprocessExecutor, SerialExecutor
from repro.resilience import injection
from repro.resilience.errors import ShardExecutionError
from repro.resilience.quarantine import FailureRecord, FailureSink
from repro.resilience.retry import RetryPolicy, is_retryable

#: Pool-level failures (no shard attribution) before the run downgrades
#: to the serial backend.
_POOL_FAILURE_THRESHOLD = 2


class ResilientExecutor(EvaluationExecutor):
    """Wrap ``inner`` with retry, soft deadlines, and quarantine."""

    name = "resilient"

    def __init__(
        self,
        inner: EvaluationExecutor,
        policy: RetryPolicy,
        shard_timeout: Optional[float] = None,
        sink: Optional[FailureSink] = None,
    ):
        super().__init__(inner.processes)
        self.inner = inner
        self.policy = policy
        self.shard_timeout = shard_timeout
        self.sink = sink or FailureSink()

    # -- the attempt loop ----------------------------------------------

    def run(
        self, task: EvaluationTask, shards: Sequence[Shard]
    ) -> Iterator[ShardResults]:
        pending = sorted(shards)
        attempts = {shard: 0 for shard in pending}
        inner = self.inner
        pool_failures = 0
        while pending:
            # Publish next-attempt numbers before the sweep: the inner
            # backend reads them as it submits each shard, so
            # attempt-dependent fault plans fire consistently.
            injection.set_attempts(
                {shard: attempts[shard] + 1 for shard in pending}
            )
            completed: List[Shard] = []
            try:
                for shard, results in self._sweep(inner, task, pending):
                    completed.append(shard)
                    yield shard, results
                pending = [shard for shard in pending if shard not in completed]
            except ShardExecutionError as error:
                pending = [shard for shard in pending if shard not in completed]
                shard = error.shard
                attempts[shard] = attempts.get(shard, 0) + 1
                if error.fatal or not is_retryable(error):
                    raise
                exhausted = attempts[shard] >= self.policy.max_attempts
                self.sink.emit(
                    FailureRecord(
                        kind="shard" if exhausted else "retry",
                        unit={"start_id": shard[0], "count": shard[1]},
                        error=str(error),
                        attempts=attempts[shard],
                    ),
                    durable=exhausted,
                )
                if exhausted:
                    pending = [other for other in pending if other != shard]
                else:
                    self.policy.sleep(attempts[shard])
            except Exception as error:
                # Pool-level breakage: no shard attribution, so no
                # per-shard attempt is charged — but repeated breakage
                # must not loop forever, hence the downgrade chain.
                if not is_retryable(error):
                    raise
                pending = [shard for shard in pending if shard not in completed]
                pool_failures += 1
                self.sink.emit(
                    FailureRecord(
                        kind="pool",
                        unit={"executor": inner.name},
                        error=str(error),
                        attempts=pool_failures,
                    )
                )
                if inner.name != "serial" and pool_failures >= _POOL_FAILURE_THRESHOLD:
                    self.sink.emit(
                        FailureRecord(
                            kind="downgrade",
                            unit={"from": inner.name, "to": "serial"},
                            error=str(error),
                            attempts=pool_failures,
                        ),
                        durable=True,
                    )
                    inner = SerialExecutor(
                        worker=inner.worker or ShardEvaluator.from_task(task)
                    )
                elif (
                    pool_failures >= _POOL_FAILURE_THRESHOLD + self.policy.max_attempts
                ):
                    raise
                self.policy.sleep(pool_failures)

    # -- sweeps --------------------------------------------------------

    def _sweep(
        self, inner: EvaluationExecutor, task: EvaluationTask, shards: Sequence[Shard]
    ) -> Iterator[ShardResults]:
        """One pass of ``inner`` over ``shards``.

        Deadlines apply to the process pool only: it is the one backend
        that can abandon a hung shard.  Every other backend runs its own
        ``run`` — the serial one has no pool to abandon, and the work
        queue bounds hung workers with its lease.
        """
        if inner.name != "serial":
            injection.maybe_inject("pool", executor=inner.name)
        if self.shard_timeout is not None and isinstance(inner, MultiprocessExecutor):
            yield from inner.run(task, shards, shard_timeout=self.shard_timeout)
        else:
            yield from inner.run(task, shards)
