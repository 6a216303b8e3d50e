"""RetryPolicy: deterministic backoff and the retryable/fatal split."""

from concurrent.futures import BrokenExecutor

import pytest

from repro.checkpoint import CheckpointKeyError
from repro.resilience import (
    FatalInjectedFault,
    InjectedFault,
    PoolBrokenError,
    RetryPolicy,
    ShardExecutionError,
    ShardTimeoutError,
    is_retryable,
)
from repro.resilience.retry import effective_policy

pytestmark = pytest.mark.faults


class TestRetryPolicy:
    def test_defaults(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 3
        assert policy.delay(1) == 0.0  # base 0 → immediate retries

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_base=-1.0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy.from_retries(-1)

    def test_from_retries_is_the_cli_spelling(self):
        assert RetryPolicy.from_retries(0).max_attempts == 1
        assert RetryPolicy.from_retries(3).max_attempts == 4

    def test_effective_policy(self):
        explicit = RetryPolicy(max_attempts=2)
        assert effective_policy(None, None) is None
        assert effective_policy(None, 30.0) == RetryPolicy()
        assert effective_policy(explicit, None) is explicit
        assert effective_policy(explicit, 30.0) is explicit

    def test_backoff_schedule_is_deterministic_and_capped(self):
        policy = RetryPolicy(
            max_attempts=5, backoff_base=1.0, backoff_factor=2.0, backoff_max=3.0
        )
        assert policy.schedule() == (1.0, 2.0, 3.0, 3.0)
        # A pure function of the attempt number: recomputing agrees.
        assert policy.schedule() == tuple(policy.delay(n) for n in range(1, 5))

    def test_identity_has_no_wall_clock_component(self):
        identity = RetryPolicy(max_attempts=2, backoff_base=0.5).identity()
        assert identity == {
            "max_attempts": 2,
            "backoff_base": 0.5,
            "backoff_factor": 2.0,
            "backoff_max": 60.0,
        }


class TestClassification:
    @pytest.mark.parametrize(
        "error",
        [
            InjectedFault("transient"),
            ShardExecutionError((0, 10), cause="boom"),
            ShardTimeoutError((0, 10), 0.5),
            PoolBrokenError("pool died"),
            BrokenExecutor("pool died"),
            TimeoutError(),
            ConnectionError(),
            OSError(28, "no space"),
            RuntimeError("maybe transient"),
        ],
    )
    def test_retryable(self, error):
        assert is_retryable(error)

    @pytest.mark.parametrize(
        "error",
        [
            FatalInjectedFault("poison"),
            ShardExecutionError((0, 10), cause="poison", fatal=True),
            CheckpointKeyError("wrong corpus"),
            ValueError("bad configuration"),
            TypeError("bad call"),
            KeyError("missing"),
        ],
    )
    def test_fatal(self, error):
        assert not is_retryable(error)
