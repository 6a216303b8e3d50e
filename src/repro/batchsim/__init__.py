"""Batched columnar simulation (the fast evaluator's columnar engine).

This package vectorizes the evaluation hot path across whole batches
of test cases: programs decode once into structure-of-arrays columns
(:mod:`repro.batchsim.decode`), a lock-step numpy engine executes all
lanes at once (:mod:`repro.batchsim.engine`), per-core timing models
replace the per-record Python loops (:mod:`repro.batchsim.timing_ibex`,
:mod:`repro.batchsim.timing_cva6`), and distinguishing atoms are
extracted by columnar diffs (:mod:`repro.batchsim.extract`).

The scalar interpreter and timing models remain the reference oracles;
every batched path is pinned byte-identical to them by the equivalence
suite, so datasets and checkpoint keys are unchanged whichever path
produced them.

The engine runs on numpy, a declared dependency of the package (the
synthesis solver imports it too); :func:`supports_core` and
:data:`BATCH_SAFE_ATTACKERS` decide which evaluations it serves.
"""

from __future__ import annotations

#: Attackers whose observations the zero-copy batch views carry
#: (retirement cycles, total cycles, and published uarch state).
BATCH_SAFE_ATTACKERS = frozenset(
    {"retirement-timing", "total-time", "cache-state"}
)


def supports_core(core) -> bool:
    """Whether ``core`` has a batched timing model.

    Dispatch is on *exact* type: subclasses may override timing hooks,
    so they always fall back to the scalar path.
    """
    from repro.uarch.cva6 import CVA6Core
    from repro.uarch.ibex import IbexCore

    return type(core) is IbexCore or type(core) is CVA6Core


def run_batch(*args, **kwargs):
    """Lazy forwarder to :func:`repro.batchsim.simulate.run_batch`."""
    from repro.batchsim.simulate import run_batch as _run_batch

    return _run_batch(*args, **kwargs)


def batch_distinguishing_atoms(*args, **kwargs):
    """Lazy forwarder to
    :func:`repro.batchsim.extract.batch_distinguishing_atoms`."""
    from repro.batchsim.extract import batch_distinguishing_atoms as _extract

    return _extract(*args, **kwargs)


__all__ = [
    "BATCH_SAFE_ATTACKERS",
    "batch_distinguishing_atoms",
    "run_batch",
    "supports_core",
]
