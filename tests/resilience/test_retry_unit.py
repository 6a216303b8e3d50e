"""retry_unit: the attempt loop adaptive rounds and campaign cells share.

A transient failure is recorded as ``"retry"`` and the unit runs again;
the last failed attempt is recorded durably under the unit's own kind
and then quarantines or re-raises; a fatal error, or any error without
a policy, propagates at once with nothing recorded.
"""

import pytest

from repro.checkpoint import CheckpointKeyError
from repro.resilience import FatalInjectedFault, InjectedFault, RetryPolicy
from repro.resilience.quarantine import FailureLog, FailureSink
from repro.resilience.retry import retry_unit

pytestmark = pytest.mark.faults

UNIT = {"cell": "core=ibex seed=0"}


class Flaky:
    """Fails with ``error`` on the first ``failures`` attempts."""

    def __init__(self, failures, error=None):
        self.failures = failures
        self.error = error or InjectedFault("transient")
        self.attempts = []

    def __call__(self, attempt):
        self.attempts.append(attempt)
        if len(self.attempts) <= self.failures:
            raise self.error
        return "done"


def _run(work, policy, quarantine=True, log_path=None):
    records = []
    sink = FailureSink(
        callback=records.append, log_path=log_path, log_key={"run": "test"}
    )
    result = retry_unit(work, policy, sink, "cell", UNIT, quarantine)
    return result, records


def test_clean_unit_runs_once_and_records_nothing():
    work = Flaky(0)
    assert _run(work, RetryPolicy()) == ("done", [])
    assert work.attempts == [1]


def test_transient_failure_is_retried_then_succeeds(tmp_path):
    log_path = str(tmp_path / "failures.jsonl")
    work = Flaky(2)
    result, records = _run(work, RetryPolicy(max_attempts=3), log_path=log_path)
    assert result == "done"
    assert work.attempts == [1, 2, 3]
    assert [(record.kind, record.attempts) for record in records] == [
        ("retry", 1),
        ("retry", 2),
    ]
    assert all(record.unit == UNIT for record in records)
    assert records[0].error == repr(InjectedFault("transient"))
    # Retries that end in success are not durable: no log is written.
    assert not (tmp_path / "failures.jsonl").exists()


def test_exhausted_quarantine_unit_returns_none_and_logs_durably(tmp_path):
    log_path = str(tmp_path / "failures.jsonl")
    work = Flaky(5)
    result, records = _run(work, RetryPolicy(max_attempts=2), log_path=log_path)
    assert result is None
    assert work.attempts == [1, 2]
    assert [(record.kind, record.attempts) for record in records] == [
        ("retry", 1),
        ("cell", 2),
    ]
    assert FailureLog(log_path, {"run": "test"}).records == records[1:]


def test_exhausted_unit_without_quarantine_reraises():
    work = Flaky(5)
    with pytest.raises(InjectedFault):
        _run(work, RetryPolicy(max_attempts=3), quarantine=False)
    assert work.attempts == [1, 2, 3]


@pytest.mark.parametrize(
    "error",
    [
        FatalInjectedFault("poison"),
        CheckpointKeyError("wrong corpus"),
        ValueError("bad configuration"),
    ],
)
def test_fatal_error_propagates_unrecorded(error):
    work = Flaky(1, error)
    records = []
    with pytest.raises(type(error)):
        retry_unit(
            work,
            RetryPolicy(),
            FailureSink(callback=records.append),
            "cell",
            UNIT,
            True,
        )
    assert work.attempts == [1]
    assert records == []


def test_without_a_policy_even_a_transient_error_propagates():
    work = Flaky(1)
    records = []
    with pytest.raises(InjectedFault):
        retry_unit(work, None, FailureSink(callback=records.append), "cell", UNIT, True)
    assert work.attempts == [1]
    assert records == []


def test_backoff_follows_the_policy_schedule(monkeypatch):
    slept = []
    monkeypatch.setattr(
        RetryPolicy, "sleep", lambda self, attempt: slept.append(attempt)
    )
    work = Flaky(3)
    result, _records = _run(work, RetryPolicy(max_attempts=4, backoff_base=1.0))
    assert result == "done"
    assert slept == [1, 2, 3]


def test_the_sinks_phase_tags_every_record():
    records = []
    sink = FailureSink(callback=records.append, phase="verify")
    retry_unit(Flaky(1), RetryPolicy(), sink, "round", {"round": 2}, True)
    assert [record.unit for record in records] == [{"round": 2, "phase": "verify"}]
