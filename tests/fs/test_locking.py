"""Tests for §4.3 concurrency rules: range write locks + metadata mutexes."""

import pytest

from repro.errors import FSError
from repro.fs import MetadataLockTable, RangeLockTable


class TestRangeLocks:
    def test_disjoint_writes_proceed(self):
        t = RangeLockTable()
        assert t.try_lock_write(1, 0, 100, "w1")
        assert t.try_lock_write(1, 100, 100, "w2")

    def test_overlapping_writes_conflict(self):
        t = RangeLockTable()
        assert t.try_lock_write(1, 0, 100, "w1")
        assert not t.try_lock_write(1, 50, 100, "w2")

    def test_different_files_never_conflict(self):
        t = RangeLockTable()
        assert t.try_lock_write(1, 0, 100, "w1")
        assert t.try_lock_write(2, 0, 100, "w2")

    def test_unlock_releases_ranges(self):
        t = RangeLockTable()
        t.try_lock_write(1, 0, 100, "w1")
        assert t.unlock_write(1, "w1") == 1
        assert t.try_lock_write(1, 0, 100, "w2")

    def test_unlock_only_owner_ranges(self):
        t = RangeLockTable()
        t.try_lock_write(1, 0, 10, "w1")
        t.try_lock_write(1, 10, 10, "w2")
        assert t.unlock_write(1, "w1") == 1
        assert t.write_locks_held(1) == 1

    def test_unlock_without_locks_is_zero(self):
        t = RangeLockTable()
        assert t.unlock_write(5, "x") == 0

    def test_adjacent_ranges_do_not_conflict(self):
        t = RangeLockTable()
        assert t.try_lock_write(1, 0, 10, "a")
        assert t.try_lock_write(1, 10, 10, "b")

    def test_invalid_range_rejected(self):
        t = RangeLockTable()
        with pytest.raises(FSError):
            t.try_lock_write(1, -1, 10, "a")


class _Waiter:
    """Stand-in for a sim Event: records wake order."""

    log = None  # shared per-test list, set by the test

    def __init__(self, name):
        self.name = name
        self.woken = False

    def succeed(self):
        self.woken = True
        _Waiter.log.append(self.name)


class TestWaiterQueues:
    """Event-driven lock wakeups: releases wake parked waiters (FIFO)."""

    def setup_method(self):
        _Waiter.log = []

    def test_release_wakes_all_waiters_in_fifo_order(self):
        t = RangeLockTable()
        t.try_lock_write(1, 0, 100, "holder")
        a, b = _Waiter("a"), _Waiter("b")
        t.wait(1, a)
        t.wait(1, b)
        assert t.waiters(1) == 2
        t.unlock_write(1, "holder")
        assert _Waiter.log == ["a", "b"]
        assert t.waiters(1) == 0

    def test_registration_is_one_shot(self):
        # A woken waiter is gone; the next release must not touch it.
        t = RangeLockTable()
        t.try_lock_write(1, 0, 10, "h1")
        w = _Waiter("w")
        t.wait(1, w)
        t.unlock_write(1, "h1")
        t.try_lock_write(1, 0, 10, "h2")
        t.unlock_write(1, "h2")
        assert _Waiter.log == ["w"]  # woken exactly once

    def test_no_wake_without_release(self):
        t = RangeLockTable()
        t.try_lock_write(1, 0, 10, "h")
        t.wait(1, _Waiter("w"))
        # unlock on an inode with no held locks releases nothing.
        assert t.unlock_write(1, "someone-else") == 0
        assert _Waiter.log == []

    def test_wakeups_scoped_to_inode(self):
        t = RangeLockTable()
        t.try_lock_write(1, 0, 10, "h1")
        t.try_lock_write(2, 0, 10, "h2")
        t.wait(1, _Waiter("on-1"))
        t.wait(2, _Waiter("on-2"))
        t.unlock_write(2, "h2")
        assert _Waiter.log == ["on-2"]
        assert t.waiters(1) == 1

    def test_metadata_unlock_wakes_waiters(self):
        t = MetadataLockTable()
        t.try_lock(7, "owner")
        w = _Waiter("m")
        t.wait(7, w)
        t.unlock(7, "owner")
        assert w.woken
        assert t.try_lock(7, "w")  # lock is free for the woken waiter


class TestRangeScopedWake:
    """A release wakes exactly the waiters it can unblock — overlapping
    or unranged — in arrival order, and nobody else."""

    KB = 1024

    def setup_method(self):
        _Waiter.log = []

    def _contended_scenario(self):
        """Holder on [0, 8K); ranged, unranged, and wide waiters parked."""
        t = RangeLockTable()
        t.try_lock_write(1, 0, 8 * self.KB, "holder")
        t.wait(1, _Waiter("in-range"), offset=4 * self.KB,
               length=self.KB, owner="in-range")
        t.wait(1, _Waiter("out-of-range"), offset=64 * self.KB,
               length=self.KB, owner="out-of-range")
        t.wait(1, _Waiter("unranged"), owner="unranged")
        t.wait(1, _Waiter("wide"), offset=0, length=1 << 22, owner="wide")
        return t

    def test_release_wakes_overlapping_and_unranged_in_fifo_order(self):
        t = self._contended_scenario()
        t.unlock_write(1, "holder")
        assert _Waiter.log == ["in-range", "unranged", "wide"]
        assert t.waiters(1) == 1  # the disjoint waiter stays parked

    def test_rearm_with_a_new_range_is_woken_by_it(self):
        t = RangeLockTable()
        t.try_lock_write(1, 0, self.KB, "holder")
        w = _Waiter("w")
        t.wait(1, w, offset=512 * self.KB, length=self.KB, owner="w")
        # Re-arm onto the held range: the wake-up must follow the move.
        t.wait(1, w, offset=0, length=self.KB, owner="w")
        t.unlock_write(1, "holder")
        assert _Waiter.log == ["w"]

    def test_acquisition_discards_the_waiter_entry(self):
        t = RangeLockTable()
        t.try_lock_write(1, 0, self.KB, "holder")
        t.wait(1, _Waiter("w"), offset=0, length=self.KB, owner="w")
        assert t.try_lock_write(1, 4 * self.KB, self.KB, "w")
        assert t.waiters(1) == 0
        t.unlock_write(1, "holder")
        assert _Waiter.log == []  # discarded entry never wakes

    def test_reset_clears_queues_and_table_keeps_working(self):
        t = self._contended_scenario()
        t.reset()
        assert t._waiters == {}
        # The table keeps working after the crash path.
        t.try_lock_write(1, 0, self.KB, "h2")
        t.wait(1, _Waiter("again"), offset=0, length=self.KB, owner="again")
        _Waiter.log = []
        t.unlock_write(1, "h2")
        assert _Waiter.log == ["again"]

    def test_two_releases_in_one_instant_keep_fifo_per_range(self):
        """Why a release wakes only its own waiters. Were A's release to
        wake W1 and W2 as well (wake-all), their retries would be queued
        by A's release, run after B's in the same instant, and W1 would
        acquire on a wake-up that was supposed to be a no-op — at A's
        place in the instant's event order, not B's. That is the
        divergence EXPERIMENTS.md records (*Toggle retirement*); with
        range-scoped wake-ups each waiter is woken by the release that
        freed its range, once, in queue order."""
        K = 64 * self.KB
        t = RangeLockTable()
        assert t.try_lock_write(1, 0, K, "A")
        assert t.try_lock_write(1, K, K, "B")
        t.wait(1, _Waiter("W1"), offset=K, length=K, owner="W1")
        t.wait(1, _Waiter("W2"), offset=K, length=K, owner="W2")
        t.wait(1, _Waiter("W0"), offset=0, length=K, owner="W0")
        # Two releases land before any woken waiter gets to retry.
        t.unlock_write(1, "A")
        assert _Waiter.log == ["W0"]
        t.unlock_write(1, "B")
        assert _Waiter.log == ["W0", "W1", "W2"]
        # Retries run in wake order: W1 takes B's range, W2 loses...
        assert t.try_lock_write(1, 0, K, "W0")
        assert t.try_lock_write(1, K, K, "W1")
        assert not t.try_lock_write(1, K, K, "W2")
        # ...re-arms in place, and stays ahead of a later arrival.
        t.wait(1, _Waiter("W2"), offset=K, length=K, owner="W2")
        t.wait(1, _Waiter("W3"), offset=K, length=K, owner="W3")
        _Waiter.log = []
        t.unlock_write(1, "W1")
        assert _Waiter.log == ["W2", "W3"]
        # No armed waiter is left without a conflicting holder.
        assert t.try_lock_write(1, K, K, "W2")
        assert t.waiters(1) == 0 and t.write_locks_held(1) == 2


class TestMetadataLocks:
    def test_exclusive(self):
        t = MetadataLockTable()
        assert t.try_lock(1, "a")
        assert not t.try_lock(1, "b")

    def test_reentrant_for_same_owner(self):
        t = MetadataLockTable()
        assert t.try_lock(1, "a")
        assert t.try_lock(1, "a")

    def test_unlock(self):
        t = MetadataLockTable()
        t.try_lock(1, "a")
        t.unlock(1, "a")
        assert not t.locked(1)
        assert t.try_lock(1, "b")

    def test_unlock_wrong_owner_raises(self):
        t = MetadataLockTable()
        t.try_lock(1, "a")
        with pytest.raises(FSError):
            t.unlock(1, "b")

    def test_holders(self):
        t = MetadataLockTable()
        t.try_lock(1, "a")
        t.try_lock(2, "b")
        assert t.holders() == {1, 2}
