"""The fault registry and the injection seam."""

import pytest

from repro.resilience import (
    FAULT_REGISTRY,
    InjectedFault,
    active_fault,
    clear_fault,
    inject_fault,
    install_fault,
    maybe_inject,
)
from repro.resilience.injection import current_attempt, set_attempts

pytestmark = pytest.mark.faults

EXPECTED_PLANS = {
    "shard-crash",
    "shard-hang",
    "worker-error",
    "torn-checkpoint",
    "pool-broken",
    "cell-crash",
    "round-crash",
}


class TestRegistry:
    def test_every_plan_is_registered(self):
        assert set(FAULT_REGISTRY.names()) == EXPECTED_PLANS

    @pytest.mark.parametrize("name", sorted(EXPECTED_PLANS))
    def test_plans_ship_as_name_plus_json_state(self, name):
        """A plan must round-trip through ``(name, state)`` — the wire
        format a remote worker would receive it as."""
        plan = FAULT_REGISTRY.create(name)
        assert plan.name == name
        clone = FAULT_REGISTRY.create(name, **plan.state())
        assert clone.state() == plan.state()

    def test_registry_describes_each_plan(self):
        for name in FAULT_REGISTRY.names():
            assert FAULT_REGISTRY.describe(name)


class TestInjectionSeam:
    def test_no_plan_is_a_no_op(self):
        clear_fault()
        assert active_fault() is None
        maybe_inject("shard", shard=(0, 10))  # must not raise

    def test_install_and_clear(self):
        plan = install_fault("shard-crash", {"start_id": 10})
        try:
            assert active_fault() is plan
            with pytest.raises(InjectedFault):
                maybe_inject("shard", shard=(10, 10), attempt=1)
            maybe_inject("shard", shard=(0, 10), attempt=1)  # other shards pass
        finally:
            clear_fault()
        assert active_fault() is None

    def test_context_manager_restores_cleanliness(self):
        with inject_fault("worker-error", start_id=0):
            assert active_fault() is not None
            with pytest.raises(RuntimeError):
                maybe_inject("shard", shard=(0, 10), attempt=1)
        assert active_fault() is None

    def test_attempt_bookkeeping_reaches_the_shard_site(self):
        """``set_attempts`` is how attempt-dependent plans see retry
        counts: executors read the published table when they submit a
        shard and pass the attempt to the seam explicitly."""
        with inject_fault("shard-crash", start_id=10, fail_attempts=1):
            set_attempts({(10, 10): 2})
            assert current_attempt((10, 10)) == 2
            assert current_attempt((0, 10)) == 1  # unpublished → first try
            # Attempt 2 is past fail_attempts=1: the plan stays quiet.
            maybe_inject("shard", shard=(10, 10), attempt=current_attempt((10, 10)))
            set_attempts({(10, 10): 1})
            with pytest.raises(InjectedFault):
                maybe_inject("shard", shard=(10, 10), attempt=current_attempt((10, 10)))
        assert current_attempt((10, 10)) == 1  # cleared with the plan
