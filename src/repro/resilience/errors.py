"""The error taxonomy of the fault-tolerant execution layer.

Two axes matter.  *Where* an error carries identity: a
:class:`ShardExecutionError` names the shard that failed (so retry and
quarantine operate per shard), while a :class:`PoolBrokenError` has no
shard attribution (the pool itself died, every in-flight shard is
lost).  And *whether* it is worth retrying: anything transient —
injected faults, timeouts, broken pools — is retryable;
:class:`FatalInjectedFault` (and configuration errors like
``ValueError``) are not.  The classification itself lives in
:func:`repro.resilience.retry.is_retryable`.

Everything here must survive a ``fork`` boundary: worker processes
raise these and the pool pickles them back to the parent, hence the
explicit ``__reduce__`` implementations.
"""

from __future__ import annotations

import pickle
from typing import Optional, Tuple


class InjectedFault(RuntimeError):
    """A deliberately injected, *retryable* fault.

    Raised by fault plans (:mod:`repro.resilience.faults`) to simulate
    transient infrastructure failures — worker crashes, killed
    processes, flaky I/O.  The retry layer treats it exactly like a
    real transient error.
    """


class FatalInjectedFault(InjectedFault):
    """An injected fault classified as *fatal*: never retried.

    Simulates errors that retrying cannot fix (corrupt configuration,
    deterministic poison input with no quarantine path) so tests can
    pin the fatal classification branch.
    """


class PoolBrokenError(RuntimeError):
    """The worker pool itself failed, losing every in-flight shard.

    Carries no shard attribution — the resilient executor responds by
    re-sweeping all pending shards, and repeated breakage triggers the
    executor downgrade chain (pool backend → serial).
    """


class ShardExecutionError(RuntimeError):
    """A typed wrapper for any error raised while evaluating one shard.

    Pool backends otherwise surface worker errors as bare exceptions
    with no indication of *which* shard died; this wrapper pins the
    ``(start_id, count)`` descriptor so the resilient layer can retry
    or quarantine exactly the failing shard, and so a human reading a
    traceback knows which test-id window to reproduce.

    ``original`` is the exception the shard raised.  It crosses the
    pickle boundary when it survives a pickle round trip (the pool
    re-chains it as ``__cause__``); otherwise only ``cause``, its
    ``repr``, does.
    """

    def __init__(
        self,
        shard: Tuple[int, int],
        cause: str = "",
        fatal: bool = False,
        original: Optional[BaseException] = None,
    ):
        self.shard = (int(shard[0]), int(shard[1]))
        self.start_id, self.count = self.shard
        self.cause = cause
        self.fatal = fatal
        self.original = original
        super().__init__(
            "shard (start_id=%d, count=%d) failed: %s"
            % (self.start_id, self.count, cause or "unknown error")
        )

    def __reduce__(self):
        # Cross the pool's pickle boundary with fields intact.  An
        # original that fails to pickle or unpickle is dropped here:
        # the pool would otherwise replace this whole error with the
        # pickling error and lose the shard attribution.
        original = self.original
        try:
            pickle.loads(pickle.dumps(original))
        except Exception:
            original = None
        return (type(self), (self.shard, self.cause, self.fatal, original))


class ShardTimeoutError(ShardExecutionError):
    """A shard exceeded its soft deadline and was rescheduled.

    Raised in the *parent* by the watchdog (the hung worker cannot be
    interrupted from outside); always retryable.
    """

    def __init__(
        self, shard: Tuple[int, int], timeout_seconds: Optional[float] = None
    ):
        self.timeout_seconds = timeout_seconds
        cause = "exceeded soft deadline"
        if timeout_seconds is not None:
            cause = "exceeded soft deadline of %.3gs" % timeout_seconds
        super().__init__(shard, cause=cause, fatal=False)

    def __reduce__(self):
        return (type(self), (self.shard, self.timeout_seconds))
