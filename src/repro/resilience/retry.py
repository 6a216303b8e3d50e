"""Retry policy, the retryable-vs-fatal classification, and the
attempt loop of units retried whole.

One :class:`RetryPolicy` and one rule serve all three granularities —
shards (:class:`repro.resilience.executor.ResilientExecutor`, which
sweeps many at a time and keeps its own loop), and adaptive rounds and
campaign cells (both through :func:`retry_unit`), under the policy
:func:`effective_policy` decides: a fatal error
propagates at once unrecorded, a retryable one is recorded as
``"retry"`` and the unit runs again, and a unit whose last attempt
fails is recorded durably under its own kind.  The backoff schedule is
a pure function of the attempt number; no wall-clock value ever enters
an identity key, so retried runs stay byte-identical to clean runs and
manifests written with or without retries resume interchangeably.
"""

from __future__ import annotations

import itertools
import time
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, TypeVar

from repro.checkpoint import CheckpointKeyError
from repro.resilience.errors import (
    FatalInjectedFault,
    InjectedFault,
    PoolBrokenError,
    ShardExecutionError,
)
from repro.resilience.quarantine import FailureRecord, FailureSink

T = TypeVar("T")


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to attempt a unit of work, and how long to wait.

    ``max_attempts`` counts *total* attempts (1 = no retries).  The
    delay before re-running attempt ``n + 1`` is ``backoff_base *
    backoff_factor ** (n - 1)`` capped at ``backoff_max`` — fully
    determined by the attempt number.  The default base of ``0`` means
    immediate retries, which is right for in-machine pools; a network
    executor would raise it.
    """

    max_attempts: int = 3
    backoff_base: float = 0.0
    backoff_factor: float = 2.0
    backoff_max: float = 60.0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.backoff_factor < 1:
            raise ValueError("backoff_factor must be at least 1")

    @staticmethod
    def from_retries(retries: int, backoff: float = 0.0) -> "RetryPolicy":
        """The CLI spelling: ``--retries N`` means N retries after the
        first attempt."""
        if retries < 0:
            raise ValueError("retries must be non-negative")
        return RetryPolicy(max_attempts=retries + 1, backoff_base=backoff)

    def delay(self, attempt: int) -> float:
        """Seconds to wait after ``attempt`` failed (1-based)."""
        if self.backoff_base <= 0:
            return 0.0
        return min(
            self.backoff_base * self.backoff_factor ** (attempt - 1),
            self.backoff_max,
        )

    def sleep(self, attempt: int) -> None:
        """Wait :meth:`delay` seconds after ``attempt`` failed."""
        seconds = self.delay(attempt)
        if seconds > 0:
            time.sleep(seconds)

    def schedule(self) -> Tuple[float, ...]:
        """The full deterministic delay schedule, one entry per retry."""
        return tuple(self.delay(attempt) for attempt in range(1, self.max_attempts))

    def identity(self) -> dict:
        return {
            "max_attempts": self.max_attempts,
            "backoff_base": self.backoff_base,
            "backoff_factor": self.backoff_factor,
            "backoff_max": self.backoff_max,
        }


def effective_policy(
    policy: Optional[RetryPolicy], shard_timeout: Optional[float]
) -> Optional[RetryPolicy]:
    """The policy shards, rounds and cells follow: ``policy``, else the
    default one if a ``shard_timeout`` needs attempts to spend, else
    ``None`` (fail fast)."""
    if policy is None and shard_timeout is not None:
        return RetryPolicy()
    return policy


def is_retryable(error: BaseException) -> bool:
    """Explicit retryable-vs-fatal classification.

    Retryable: injected transient faults, shard execution failures
    (including timeouts), broken pools, OS-level errors — anything a
    fresh attempt on healthy infrastructure could fix.  Fatal:
    :class:`FatalInjectedFault`, checkpoint key mismatches, and
    configuration errors (``ValueError``/``TypeError``) — retrying
    cannot change the answer.  ``KeyboardInterrupt``/``SystemExit``
    never reach this function: they are ``BaseException`` and no retry
    loop catches them.
    """
    if isinstance(error, FatalInjectedFault):
        return False
    if isinstance(error, ShardExecutionError):
        return not error.fatal
    if isinstance(error, (InjectedFault, PoolBrokenError, BrokenExecutor)):
        return True
    if isinstance(error, CheckpointKeyError):
        return False
    if isinstance(error, (TimeoutError, ConnectionError, OSError)):
        return True
    if isinstance(error, (ValueError, TypeError)):
        return False
    return isinstance(error, RuntimeError)


def retry_unit(
    work: Callable[[int], T],
    policy: Optional[RetryPolicy],
    sink: FailureSink,
    kind: str,
    unit: dict,
    quarantine: bool,
) -> Optional[T]:
    """Run ``work(attempt)`` until it returns, retrying the whole unit.

    Without a ``policy``, or on a fatal error, the error propagates at
    once and nothing is recorded.  A retryable error is recorded as
    ``"retry"`` and ``work`` runs again after ``policy.delay(attempt)``.
    When the last attempt fails the failure is recorded durably as
    ``kind``; then a ``quarantine`` unit returns ``None`` and the run
    goes on without it, any other unit re-raises.
    """
    for attempt in itertools.count(1):
        try:
            return work(attempt)
        except Exception as error:
            if policy is None or not is_retryable(error):
                raise
            exhausted = attempt >= policy.max_attempts
            sink.emit(
                FailureRecord(
                    kind=kind if exhausted else "retry",
                    unit=unit,
                    error=repr(error),
                    attempts=attempt,
                ),
                durable=exhausted,
            )
            if exhausted:
                if quarantine:
                    return None
                raise
            policy.sleep(attempt)
