"""Tests for job metadata and the heartbeat-driven status table."""

import pytest

from repro.core import JobInfo, JobRecord, JobStatusTable
from repro.errors import SchedulerError


def job(jid, user="alice", group="g0", size=1, priority=1.0):
    return JobInfo(job_id=jid, user=user, group=group, size=size,
                   priority=priority)


class TestJobInfo:
    def test_valid(self):
        j = job(1, size=64)
        assert j.size == 64

    def test_invalid_size(self):
        with pytest.raises(SchedulerError):
            job(1, size=0)

    def test_invalid_priority(self):
        with pytest.raises(SchedulerError):
            job(1, priority=0.0)

    @pytest.mark.parametrize("priority", [float("nan"), float("inf")])
    def test_non_finite_priority_rejected(self, priority):
        # `priority <= 0` is False for NaN and +inf, so both once passed
        # and made priority-fair shares NaN, starving the other jobs.
        with pytest.raises(SchedulerError):
            job(1, priority=priority)

    @pytest.mark.parametrize("size", [float("nan"), float("inf")])
    def test_non_finite_size_rejected(self, size):
        # `size < 1` is False for NaN and +inf, so both once passed and
        # made size-fair shares {1: nan, 2: nan} and {1: nan, 2: 0.0}.
        with pytest.raises(SchedulerError, match="size"):
            job(1, size=size)

    def test_frozen(self):
        with pytest.raises(Exception):
            job(1).size = 5


class TestStatusTable:
    def test_observe_registers_active(self):
        table = JobStatusTable()
        assert table.observe(job(1), now=0.0) is True
        assert table.is_active(1)
        assert table.active_jobs() == [job(1)]

    def test_observe_same_job_is_not_a_change(self):
        table = JobStatusTable()
        table.observe(job(1), now=0.0)
        assert table.observe(job(1), now=1.0) is False

    def test_observe_updated_info_is_a_change(self):
        table = JobStatusTable()
        table.observe(job(1, size=4), now=0.0)
        assert table.observe(job(1, size=8), now=1.0) is True
        assert table.get(1).size == 8

    def test_expire_after_timeout(self):
        table = JobStatusTable(heartbeat_timeout=2.0)
        table.observe(job(1), now=0.0)
        assert table.expire(now=1.0) == []
        assert table.expire(now=3.0) == [1]
        assert not table.is_active(1)
        assert table.active_jobs() == []

    def test_observe_reactivates_an_expired_job(self):
        table = JobStatusTable(heartbeat_timeout=2.0)
        table.observe(job(1), now=0.0)
        table.expire(now=5.0)
        assert table.observe(job(1), now=6.0) is True
        assert table.is_active(1)

    def test_deactivate_once(self):
        table = JobStatusTable()
        table.observe(job(1), now=0.0)
        assert table.deactivate(1) is True
        assert table.deactivate(1) is False
        assert table.deactivate(9) is False
        assert 1 in table and not table.is_active(1)

    def test_active_jobs_sorted_by_id(self):
        table = JobStatusTable()
        for jid in (3, 1, 2):
            table.observe(job(jid), now=0.0)
        assert [j.job_id for j in table.active_jobs()] == [1, 2, 3]

    def test_version_bumps_on_changes_only(self):
        table = JobStatusTable()
        v0 = table.version
        table.observe(job(1), now=0.0)
        v1 = table.version
        assert v1 > v0
        table.observe(job(1), now=1.0)  # refresh, no change
        assert table.version == v1

    def test_invalid_timeout(self):
        with pytest.raises(SchedulerError):
            JobStatusTable(heartbeat_timeout=0.0)


class TestMerge:
    def test_union_of_disjoint_tables(self):
        a, b = JobStatusTable(), JobStatusTable()
        a.observe(job(1, size=16), now=0.0)
        b.observe(job(2, size=8), now=0.0)
        assert a.merge(b.snapshot()) is True
        assert [j.job_id for j in a.active_jobs()] == [1, 2]

    def test_newest_heartbeat_wins(self):
        a, b = JobStatusTable(), JobStatusTable()
        a.observe(job(1, size=4), now=0.0)
        b.observe(job(1, size=32), now=5.0)  # fresher info
        a.merge(b.snapshot())
        assert a.get(1).size == 32

    def test_stale_remote_does_not_regress(self):
        a, b = JobStatusTable(), JobStatusTable()
        a.observe(job(1, size=32), now=5.0)
        b.observe(job(1, size=4), now=0.0)
        assert a.merge(b.snapshot()) is False
        assert a.get(1).size == 32

    def test_inactive_state_propagates(self):
        a, b = JobStatusTable(heartbeat_timeout=1.0), JobStatusTable()
        a.observe(job(1), now=0.0)
        b.observe(job(1), now=0.0)
        a.expire(now=10.0)
        # a's knowledge is newer only if its heartbeat stamp is newer; give
        # b a merge from a snapshot carrying active=False at a later stamp.
        b.observe(job(2), now=0.0)
        b.merge([record._replace(last_heartbeat=11.0)
                 for record in a.snapshot()])
        assert not b.is_active(1)

    def test_merge_is_idempotent(self):
        a, b = JobStatusTable(), JobStatusTable()
        a.observe(job(1), now=0.0)
        b.observe(job(2), now=0.0)
        a.merge(b.snapshot())
        assert a.merge(b.snapshot()) is False


class TestRecordsAreValues:
    """A record is immutable and shared by reference: nothing a table
    does later may show through a snapshot or a peer that merged it."""

    def test_snapshot_is_unchanged_by_later_updates(self):
        table = JobStatusTable(heartbeat_timeout=2.0)
        table.observe(job(1, size=4), now=0.0)
        table.observe(job(2), now=0.0)
        snap = table.snapshot()
        frozen = [tuple(record) for record in snap]
        table.observe(job(1, size=8), now=1.0)
        table.observe(job(3), now=1.0)
        table.deactivate(2)
        table.expire(now=10.0)
        assert [tuple(record) for record in snap] == frozen
        assert snap[0] == JobRecord(job(1, size=4), 0.0, True)

    def test_merge_installs_the_record_and_peers_diverge_afterwards(self):
        source = JobStatusTable()
        source.observe(job(1), now=1.0)
        (record,) = source.snapshot()
        a, b = JobStatusTable(heartbeat_timeout=2.0), JobStatusTable()
        a.merge([record])
        b.merge([record])
        assert a.snapshot()[0] is record and b.snapshot()[0] is record
        a.expire(now=10.0)
        b.observe(job(1, size=2), now=3.0)
        assert not a.is_active(1) and b.is_active(1)
        assert source.snapshot() == [record]
        assert record == JobRecord(job(1), 1.0, True)
        assert b.get(1).size == 2 and a.get(1).size == 1

    def test_record_cannot_be_mutated(self):
        table = JobStatusTable()
        table.observe(job(1), now=0.0)
        with pytest.raises(AttributeError):
            table.snapshot()[0].active = False
