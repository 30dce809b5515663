"""Unit tests of the deterministic fault-injection registry."""

import pytest

from repro.service import faults
from repro.service.faults import FaultPlan, FaultRule


class TestFaultRule:
    def test_rejects_unknown_site(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultRule("no.such.seam")

    def test_rejects_unknown_action(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            FaultRule(faults.SOCKET_SEND, action="explode")

    def test_rejects_non_positive_window(self):
        with pytest.raises(ValueError, match="1-based"):
            FaultRule(faults.SOCKET_SEND, at=0)
        with pytest.raises(ValueError, match="times"):
            FaultRule(faults.SOCKET_SEND, times=0)

    def test_match_narrows_by_context(self):
        rule = FaultRule(faults.SOCKET_SEND, match={"method": "stream"})
        assert rule.matches({"method": "stream", "extra": 1})
        assert not rule.matches({"method": "rank"})
        assert not rule.matches({})


class TestFaultPlan:
    def test_fires_inside_window_only(self):
        plan = FaultPlan(FaultRule(faults.CHECKPOINT_FSYNC, at=2, times=2))
        fired = [
            plan.fire(faults.CHECKPOINT_FSYNC, {}) is not None for _ in range(5)
        ]
        assert fired == [False, True, True, False, False]
        assert plan.invocations(faults.CHECKPOINT_FSYNC) == 5
        events = plan.fired_at(faults.CHECKPOINT_FSYNC)
        assert [event.invocation for event in events] == [2, 3]

    def test_match_filtered_invocations_do_not_count(self):
        plan = FaultPlan(
            FaultRule(faults.SOCKET_SEND, action="drop", at=2,
                      match={"method": "stream"})
        )
        assert plan.fire(faults.SOCKET_SEND, {"method": "rank"}) is None
        assert plan.fire(faults.SOCKET_SEND, {"method": "stream"}) is None  # 1st match
        assert plan.fire(faults.SOCKET_SEND, {"method": "rank"}) is None
        rule = plan.fire(faults.SOCKET_SEND, {"method": "stream"})  # 2nd match
        assert rule is not None and rule.action == "drop"

    def test_rules_keep_independent_counters(self):
        """"Drop on call 2" and "drop on call 4" coexist in one plan."""
        plan = FaultPlan(
            FaultRule(faults.SOCKET_SEND, action="drop", at=2),
            FaultRule(faults.SOCKET_SEND, action="drop", at=4),
        )
        fired = [
            plan.fire(faults.SOCKET_SEND, {}) is not None for _ in range(5)
        ]
        assert fired == [False, True, False, True, False]

    def test_first_matching_rule_wins(self):
        plan = FaultPlan(
            FaultRule(faults.WAL_FSYNC, message="first"),
            FaultRule(faults.WAL_FSYNC, message="second"),
        )
        rule = plan.fire(faults.WAL_FSYNC, {})
        assert rule is not None and rule.message == "first"
        # The loser's counter advanced too: it never fires later.
        assert plan.fire(faults.WAL_FSYNC, {}) is None

    def test_reset_replays_identically(self):
        plan = FaultPlan(FaultRule(faults.WAL_FSYNC, at=3))
        first = [plan.fire(faults.WAL_FSYNC, {}) is not None for _ in range(4)]
        plan.reset()
        second = [plan.fire(faults.WAL_FSYNC, {}) is not None for _ in range(4)]
        assert first == second == [False, False, True, False]
        assert plan.invocations(faults.WAL_FSYNC) == 4


class TestArming:
    def test_inject_is_noop_when_disarmed(self):
        assert faults.active() is None
        assert faults.inject(faults.SOCKET_RECV) is None

    def test_armed_context_disarms_on_exit(self):
        with faults.armed(FaultRule(faults.SOCKET_RECV, action="drop")) as plan:
            assert faults.active() is plan
            assert faults.inject(faults.SOCKET_RECV) is not None
        assert faults.active() is None

    def test_armed_context_disarms_on_error(self):
        with pytest.raises(RuntimeError):
            with faults.armed(FaultRule(faults.SOCKET_RECV)):
                raise RuntimeError("test escape")
        assert faults.active() is None

    def test_arm_replaces_previous_plan(self):
        first = faults.arm(FaultPlan())
        second = faults.arm(FaultPlan())
        assert faults.active() is second is not first
        faults.disarm()
        assert faults.active() is None

    def test_event_audit_trail_records_context(self):
        with faults.armed(
            FaultRule(faults.SOCKET_SEND, action="drop", match={"method": "stream"})
        ) as plan:
            faults.inject(faults.SOCKET_SEND, method="stream")
        (event,) = plan.fired
        assert event.site == faults.SOCKET_SEND
        assert event.action == "drop"
        assert dict(event.context) == {"method": "stream"}
