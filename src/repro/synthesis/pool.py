"""ILP solves in forked worker processes.

:class:`SolvePool` is an :class:`~repro.synthesis.solvers.IlpSolver`
that runs another solver's ``solve`` in a pool of worker processes, so
that several callers' threads can solve at once: the adaptive loop
solves one round while it evaluates the next (see
:mod:`repro.adaptive.loop`).  A call blocks its thread until a worker
returns.  HiGHS runs in the worker, outside the caller's address space:
two MIP solves in one process raise its peak memory by about one
solve's worth each.

The workers are forked when the pool is built, before its caller starts
any thread, and inherit the solver: it is never pickled, so an
instance-configured solver works as it is.  Only the
:class:`~repro.synthesis.ilp.IlpInstance` and the
:class:`~repro.synthesis.solvers.SolverResult` cross the process
boundary.  An error raised in a worker reaches the caller with its own
type, the worker's traceback chained as its cause.  :meth:`close`
terminates the workers: a solve still running is abandoned, not waited
for.
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

from repro.synthesis.ilp import IlpInstance
from repro.synthesis.solvers import IlpSolver, SolverResult

#: The solver of a pool worker; set by the pool initializer in each
#: forked child.
_worker_solver: Optional[IlpSolver] = None


def _initialize_worker(solver: IlpSolver) -> None:
    # Under ``fork`` the initializer's arguments are inherited, never
    # pickled.
    global _worker_solver
    _worker_solver = solver


def _solve_in_worker(instance: IlpInstance) -> SolverResult:
    return _worker_solver.solve(instance)


class SolvePool(IlpSolver):
    """``solver``'s solves on ``workers`` forked processes."""

    def __init__(self, solver: IlpSolver, workers: int):
        self.solver = solver
        self.name = solver.name
        self._pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_initialize_worker,
            initargs=(solver,),
        )
        # Under ``fork`` the first submission starts every worker, from
        # this thread: the children never inherit a half-held lock of a
        # thread the caller starts later.
        self._pool.submit(int)

    def solve(self, instance: IlpInstance) -> SolverResult:
        return self._pool.submit(_solve_in_worker, instance).result()

    def close(self) -> None:
        """Terminate the workers and wait until they have exited.  A
        solve still running fails in its caller's thread."""
        # ``ProcessPoolExecutor`` can only wait for running calls; its
        # processes are terminated directly.
        for process in list((self._pool._processes or {}).values()):
            process.terminate()
        self._pool.shutdown(wait=True, cancel_futures=True)
