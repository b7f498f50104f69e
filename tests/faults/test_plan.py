"""Validation, ordering and matching semantics of fault plans."""

import pytest

from repro.errors import ConfigError
from repro.faults import (ClientDisconnect, FaultPlan, HeartbeatLoss,
                          LinkFault, ServerCrash, StorageFault)


class TestValidation:
    def test_negative_crash_time_rejected(self):
        with pytest.raises(ConfigError):
            ServerCrash("bb0", at=-1.0)

    def test_restart_must_follow_crash(self):
        with pytest.raises(ConfigError):
            ServerCrash("bb0", at=2.0, restart_at=2.0)

    def test_inverted_window_rejected(self):
        with pytest.raises(ConfigError):
            LinkFault(start=2.0, stop=1.0, drop_prob=1.0)

    def test_probability_out_of_range(self):
        with pytest.raises(ConfigError):
            LinkFault(start=0.0, stop=1.0, drop_prob=1.5)

    def test_noop_link_fault_rejected(self):
        with pytest.raises(ConfigError):
            LinkFault(start=0.0, stop=1.0)

    def test_endpoint_b_without_a_rejected(self):
        with pytest.raises(ConfigError):
            LinkFault(start=0.0, stop=1.0, b="bb1", drop_prob=1.0)

    def test_negative_delay_rejected(self):
        with pytest.raises(ConfigError):
            LinkFault(start=0.0, stop=1.0, delay=-0.1)

    def test_storage_error_rate_zero_rejected(self):
        with pytest.raises(ConfigError):
            StorageFault("bb0", start=0.0, stop=1.0, error_rate=0.0)

    def test_heartbeat_window_validated(self):
        with pytest.raises(ConfigError):
            HeartbeatLoss(start=-1.0, stop=1.0)

    def test_disconnect_time_validated(self):
        with pytest.raises(ConfigError):
            ClientDisconnect("c0", at=-0.5)

    def test_non_fault_rejected_by_plan(self):
        with pytest.raises(ConfigError):
            FaultPlan(["not a fault"])


class TestPlanOrdering:
    def test_sorted_by_effect_time(self):
        plan = FaultPlan([
            ServerCrash("bb0", at=5.0),
            LinkFault(start=1.0, stop=2.0, drop_prob=0.5),
            ClientDisconnect("c0", at=3.0),
        ])
        assert [getattr(f, "start") for f in plan.faults] == [1.0, 3.0, 5.0]

    def test_len_and_of_type(self):
        plan = FaultPlan([
            ServerCrash("bb0", at=1.0),
            ServerCrash("bb1", at=2.0),
            HeartbeatLoss(start=0.0, stop=4.0),
        ])
        assert len(plan) == 3
        assert [f.server for f in plan.of_type(ServerCrash)] == ["bb0", "bb1"]
        assert len(plan.of_type(StorageFault)) == 0

    def test_describe_lists_every_fault(self):
        plan = FaultPlan([ServerCrash("bb0", at=1.0),
                          HeartbeatLoss(start=0.5, stop=2.0)])
        text = plan.describe()
        assert len(text.splitlines()) == 2
        assert "ServerCrash" in text and "HeartbeatLoss" in text

    def test_plans_are_frozen(self):
        plan = FaultPlan([ServerCrash("bb0", at=1.0)])
        with pytest.raises(Exception):
            plan.faults = ()


class TestLinkMatching:
    def test_wildcard_matches_everything(self):
        f = LinkFault(start=0.0, stop=1.0, drop_prob=1.0)
        assert f.matches("x", "y")

    def test_single_endpoint_matches_either_direction(self):
        f = LinkFault(start=0.0, stop=1.0, a="bb0", drop_prob=1.0)
        assert f.matches("bb0", "cn-1")
        assert f.matches("cn-1", "bb0")
        assert not f.matches("cn-1", "bb1")

    def test_pair_matches_both_directions_only(self):
        f = LinkFault(start=0.0, stop=1.0, a="bb0", b="bb1", drop_prob=1.0)
        assert f.matches("bb0", "bb1")
        assert f.matches("bb1", "bb0")
        assert not f.matches("bb0", "cn-1")


class TestCrashWindows:
    def test_overlapping_crash_windows_rejected(self):
        # Second crash lands while bb0 is still down (no restart yet).
        with pytest.raises(ConfigError):
            FaultPlan([ServerCrash("bb0", at=1.0, restart_at=3.0),
                       ServerCrash("bb0", at=2.0)])

    def test_restartless_crash_blocks_any_later_crash(self):
        with pytest.raises(ConfigError):
            FaultPlan([ServerCrash("bb0", at=1.0),
                       ServerCrash("bb0", at=5.0, restart_at=6.0)])

    def test_disjoint_windows_accepted(self):
        plan = FaultPlan([ServerCrash("bb0", at=1.0, restart_at=2.0),
                          ServerCrash("bb0", at=3.0, restart_at=4.0),
                          ServerCrash("bb1", at=1.5)])
        assert len(plan) == 3
