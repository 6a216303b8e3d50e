"""Fault-tolerant execution: injection, retry, timeouts, quarantine.

Public surface (lazily imported):

- :data:`FAULT_REGISTRY` and the :class:`FaultPlan` hierarchy — the
  name-addressable fault-injection harness;
- :func:`install_fault` / :func:`clear_fault` / :func:`inject_fault` /
  :func:`maybe_inject` — the injection seam;
- :class:`RetryPolicy` / :func:`is_retryable` / :func:`retry_unit` —
  deterministic backoff, the retryable-vs-fatal classification, and
  the attempt loop of rounds and cells;
- :class:`FailureRecord` / :class:`FailureSink` / :class:`FailureLog` —
  failure records, the one sink each of them goes through, and the
  quarantine manifest;
- :class:`ResilientExecutor` — retry/watchdog/quarantine wrapper over
  any evaluation backend;
- the error taxonomy (:class:`ShardExecutionError`, ...).

Shards, rounds and cells fail by one rule (see
:mod:`repro.resilience.retry`).

Submodules are resolved on attribute access (PEP 562): low-level
modules (``repro.checkpoint``, the executor backends) host injection
seams and import from this package, so eagerly importing every
submodule here would cycle back into them mid-initialization.
"""

from __future__ import annotations

from importlib import import_module

_EXPORTS = {
    "InjectedFault": "repro.resilience.errors",
    "FatalInjectedFault": "repro.resilience.errors",
    "PoolBrokenError": "repro.resilience.errors",
    "ShardExecutionError": "repro.resilience.errors",
    "ShardTimeoutError": "repro.resilience.errors",
    "FAULT_REGISTRY": "repro.resilience.faults",
    "FaultPlan": "repro.resilience.faults",
    "ALWAYS": "repro.resilience.faults",
    "install_fault": "repro.resilience.injection",
    "clear_fault": "repro.resilience.injection",
    "active_fault": "repro.resilience.injection",
    "inject_fault": "repro.resilience.injection",
    "maybe_inject": "repro.resilience.injection",
    "RetryPolicy": "repro.resilience.retry",
    "is_retryable": "repro.resilience.retry",
    "retry_unit": "repro.resilience.retry",
    "FailureRecord": "repro.resilience.quarantine",
    "FailureSink": "repro.resilience.quarantine",
    "FailureLog": "repro.resilience.quarantine",
    "ResilientExecutor": "repro.resilience.executor",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            "module %r has no attribute %r" % (__name__, name)
        ) from None
    return getattr(import_module(module), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
