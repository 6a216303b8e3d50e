"""One pool of forked worker processes per run.

A :class:`ForkPool` runs ``fn(target, *args)`` in worker processes that
inherit its targets (evaluation stacks, an ILP solver) through
``fork``: targets are never pickled, so instance-configured plugins
work as they are.  A run builds at most one pool, names its targets in
setup and installs it with ``with pool:``; evaluation shards,
directed-verification shards and adaptive round solves all run on it
(:func:`current_pool`), and leaving the block terminates the workers.
Calls outside a run get a pool scoped to the call.  The first use
forks every worker at once, from the thread that uses it: a run that
never fans out forks nothing, and a run forks before it starts threads.

Faults are the only case where a run forks again, possibly while its
solve threads are alive.  A worker that dies breaks the pool, and so
does :meth:`ForkPool.close` before the run ends: a sweep whose
``shard_timeout`` deadline abandons its workers, or an adaptive run
that stops with solves in flight.  The next use forks a replacement.
The calls a break cut off fail with ``BrokenProcessPool``: the
resilient executor re-sweeps their shards, and the adaptive loop
resubmits a cut-off round solve once, because solves are pure.
"""

from __future__ import annotations

import multiprocessing
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from contextvars import ContextVar
from typing import Callable, Optional, Sequence

#: The pool installed for the enclosing run, per thread.
_CURRENT: ContextVar[Optional["ForkPool"]] = ContextVar("fork_pool", default=None)

#: A worker's inherited targets, set in each forked child.
_targets: tuple = ()


def _adopt(targets: tuple) -> None:
    # Under ``fork`` the initializer's arguments are inherited, never
    # pickled: the parent's objects reach the child as they are.
    global _targets
    _targets = targets


def _call(fn: Callable, index: int, args: tuple):
    return fn(_targets[index], *args)


def current_pool(*targets) -> Optional["ForkPool"]:
    """The pool of the enclosing run, if it holds every ``target``."""
    pool = _CURRENT.get()
    if pool is not None and all(target in pool.targets for target in targets):
        return pool
    return None


def result(future: Future):
    """A finished call's result.  A worker error keeps its type, the
    worker's traceback chained as its cause; an error wrapping another
    as ``original`` (a shard error) gets that back as ``__cause__``,
    the traceback behind it."""
    try:
        return future.result()
    except Exception as error:
        if getattr(error, "original", None) is not None:
            error.original.__cause__ = error.__cause__
            error.__cause__ = error.original
        raise


class ForkPool:
    """``workers`` forked processes that inherit ``targets``."""

    def __init__(self, workers: int, targets: Sequence[object] = ()):
        self.workers = workers
        self.targets = list(targets)
        self._executor: Optional[ProcessPoolExecutor] = None
        self._lock = threading.Lock()

    def inherit(self, target) -> None:
        """Add ``target``, for workers forked from now on."""
        if self._executor is not None:
            raise RuntimeError("the pool has forked: its workers cannot inherit more")
        self.targets.append(target)

    def start(self) -> None:
        """Fork the workers from this thread unless they are running."""
        with self._lock:
            self._running()

    def submit(self, fn: Callable, target, *args) -> Future:
        """Run ``fn(target, *args)`` in a worker (``fn`` a module-level
        function, ``target`` one of :attr:`targets`)."""
        index = self.targets.index(target)
        with self._lock:
            return self._running().submit(_call, fn, index, args)

    def close(self) -> None:
        """Terminate the workers now; their calls fail."""
        with self._lock:
            self._discard()

    def __enter__(self) -> "ForkPool":
        self._token = _CURRENT.set(self)
        return self

    def __exit__(self, *exc_info) -> None:
        _CURRENT.reset(self._token)
        self.close()

    def _running(self) -> ProcessPoolExecutor:
        if self._executor is not None and self._executor._broken:
            self._discard()
        if self._executor is None:
            self._executor = self._fork()
        return self._executor

    def _discard(self) -> None:
        executor, self._executor = self._executor, None
        if executor is not None:
            # ``ProcessPoolExecutor`` can only wait for running calls;
            # its processes are terminated directly.
            for process in list((executor._processes or {}).values()):
                process.terminate()
            executor.shutdown(wait=True, cancel_futures=True)

    def _fork(self) -> ProcessPoolExecutor:
        executor = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_adopt,
            initargs=(tuple(self.targets),),
        )
        # Under ``fork`` the first submission starts every worker, from
        # this thread and before the executor's own threads start.
        executor.submit(int)
        return executor
