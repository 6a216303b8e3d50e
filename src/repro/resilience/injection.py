"""The fault-injection seam: one active plan, consulted by site name.

Production code calls :func:`maybe_inject` at a handful of fixed seams
(see :mod:`repro.resilience.faults` for the site vocabulary); with no
plan installed that is a single ``is None`` check, so the seam costs
nothing in real runs.

The active plan is module-global *on purpose*: a run's pool forks
inside the run, and a forked child inherits this module's state —
installing a plan before the run injects it into every worker with no
extra plumbing, mirroring how a remote worker would receive the plan
as ``(name, state)``.  Attempt numbers change between sweeps of one
pool, so they travel with each submission instead: executors read the
:func:`set_attempts` table with :func:`current_attempt` as they submit
a shard, so attempt-dependent plans ("fail twice, then recover")
behave identically in-process and in pool workers.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Optional, Tuple

from repro.resilience.faults import FAULT_REGISTRY, FaultPlan

#: The single active fault plan (``None`` in production runs).
_ACTIVE: Optional[FaultPlan] = None

#: Next attempt number per shard, published before each sweep and
#: read in the parent when a shard is submitted.
_ATTEMPTS: Dict[Tuple[int, int], int] = {}


def install_fault(name: str, state: Optional[dict] = None) -> FaultPlan:
    """Install the named plan (with JSON ``state``) as the active fault."""
    global _ACTIVE
    _ACTIVE = FAULT_REGISTRY.create(name, **(state or {}))
    _ATTEMPTS.clear()
    return _ACTIVE


def clear_fault() -> None:
    """Remove the active plan and forget attempt bookkeeping."""
    global _ACTIVE
    _ACTIVE = None
    _ATTEMPTS.clear()


def active_fault() -> Optional[FaultPlan]:
    return _ACTIVE


def set_attempts(attempts: Dict[Tuple[int, int], int]) -> None:
    """Publish the next attempt number for each pending shard."""
    _ATTEMPTS.clear()
    _ATTEMPTS.update(attempts)


def current_attempt(shard: Tuple[int, int]) -> int:
    return _ATTEMPTS.get(tuple(shard), 1)


def maybe_inject(site: str, **context) -> None:
    """Consult the active fault plan at ``site`` (no-op when none)."""
    plan = _ACTIVE
    if plan is None:
        return
    plan.inject(site, **context)


@contextmanager
def inject_fault(name: str, **state):
    """Context manager installing a fault for the enclosed block."""
    plan = install_fault(name, state)
    try:
        yield plan
    finally:
        clear_fault()
