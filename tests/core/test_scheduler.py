"""Tests for the statistical token scheduler and QueueSet."""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.core import (FifoScheduler, JobInfo, Policy, QueueSet,
                        StatisticalTokenScheduler)
from repro.errors import SchedulerError


@dataclass
class Req:
    job_id: int
    cost: float = 1.0
    seq: int = 0


def job(jid, user="u0", size=1):
    return JobInfo(job_id=jid, user=user, size=size)


def make(policy="job-fair", seed=0, opportunity_fair=True):
    return StatisticalTokenScheduler(
        Policy.parse(policy), np.random.default_rng(seed),
        opportunity_fair=opportunity_fair)


class TestQueueSet:
    def test_fifo_within_job(self):
        q = QueueSet()
        q.push(Req(1, seq=0))
        q.push(Req(1, seq=1))
        assert q.pop(1).seq == 0
        assert q.pop(1).seq == 1

    def test_pop_empty_raises(self):
        q = QueueSet()
        with pytest.raises(SchedulerError):
            q.pop(1)

    def test_counts_and_cost(self):
        q = QueueSet()
        q.push(Req(1, cost=10))
        q.push(Req(2, cost=5))
        q.push(Req(2, cost=5))
        assert q.total == 3
        assert q.depth(2) == 2
        assert q.queued_cost(2) == 10
        assert q.jobs == [1, 2]
        q.pop(2)
        assert q.queued_cost(2) == 5

    def test_bool_and_peek(self):
        q = QueueSet()
        assert not q
        q.push(Req(3, seq=7))
        assert q
        assert q.peek(3).seq == 7
        assert q.peek(9) is None

    def test_drain_returns_everything_in_job_order(self):
        q = QueueSet()
        q.push(Req(2, seq=0))
        q.push(Req(1, seq=0))
        q.push(Req(1, seq=1))
        drained = q.drain()
        assert [(r.job_id, r.seq) for r in drained] == [
            (1, 0), (1, 1), (2, 0)]
        assert not q
        assert q.total == 0 and q.queued_cost(1) == 0

    def test_changes_counts_membership_changes_only(self):
        q = QueueSet()
        q.push(Req(1))
        q.push(Req(1))        # job 1 was already backlogged
        q.push(Req(2))
        assert q.changes == 2 and q.jobs == [1, 2]
        q.pop(1)              # job 1 stays backlogged
        assert q.changes == 2
        q.pop(1)
        assert q.changes == 3 and q.jobs == [2]
        q.drain()
        assert q.changes == 4 and q.jobs == []
        q.drain()             # a drain counts even when nothing goes
        assert q.changes == 5


class TestDrainAndWake:
    """Crash support (drain) and event-driven worker wake-up points."""

    def test_scheduler_drain_empties_queues(self):
        s = make()
        s.on_jobs_changed([job(1), job(2)])
        for i in range(3):
            s.enqueue(Req(1, seq=i), 0.0)
        s.enqueue(Req(2, seq=0), 0.0)
        drained = s.drain()
        assert len(drained) == 4
        assert s.backlog == 0
        assert s.dequeue(0.0) is None

    def test_dequeue_after_drain_draws_over_the_new_backlog(self):
        s = make("job-fair")
        s.on_jobs_changed([job(1), job(2), job(3)])
        for _ in range(6):
            s.enqueue(Req(1), 0.0)
            s.enqueue(Req(2), 0.0)
        assert s.dequeue(0.0) is not None
        dropped = s.drain()
        assert dropped and s.backlog == 0
        s.enqueue(Req(3), 0.0)
        req = s.dequeue(0.0)
        assert req is not None and req.job_id == 3

    def test_ablation_mode_stays_on_short_timer(self):
        # opportunity_fair=False can waste a draw on an idle job, so a
        # backlogged queue must be polled again immediately (the worker
        # keeps its pre-existing _BLOCKED_RETRY cadence, trace-identical).
        s = make(opportunity_fair=False)
        s.on_jobs_changed([job(1)])
        assert s.next_eligible_time(5.0) == float("inf")  # empty queues
        s.enqueue(Req(1), 5.0)
        assert s.next_eligible_time(5.0) == 5.0

    def test_opportunity_fair_parks_on_work_event(self):
        # dequeue never returns None with backlog here, so a None means
        # "no work at all" and the worker can park on the work event.
        s = make(opportunity_fair=True)
        s.on_jobs_changed([job(1)])
        assert s.next_eligible_time(0.0) == float("inf")
        s.enqueue(Req(1), 0.0)
        assert s.next_eligible_time(0.0) == float("inf")


class TestTokenScheduler:
    def test_serves_fifo_within_a_job(self):
        s = make()
        s.on_jobs_changed([job(1)])
        for i in range(3):
            s.enqueue(Req(1, seq=i), 0.0)
        assert [s.dequeue(0.0).seq for _ in range(3)] == [0, 1, 2]

    def test_empty_dequeue_returns_none(self):
        s = make()
        assert s.dequeue(0.0) is None

    def test_job_fair_splits_service_evenly(self):
        s = make("job-fair", seed=1)
        s.on_jobs_changed([job(1), job(2)])
        for i in range(4000):
            s.enqueue(Req(1), 0.0)
            s.enqueue(Req(2), 0.0)
        served = {1: 0, 2: 0}
        for _ in range(4000):
            served[s.dequeue(0.0).job_id] += 1
        ratio = served[1] / 4000
        assert 0.46 < ratio < 0.54

    def test_size_fair_splits_proportionally(self):
        s = make("size-fair", seed=2)
        s.on_jobs_changed([job(1, size=4), job(2, size=1)])
        for _ in range(6000):
            s.enqueue(Req(1), 0.0)
            s.enqueue(Req(2), 0.0)
        served = {1: 0, 2: 0}
        for _ in range(5000):
            served[s.dequeue(0.0).job_id] += 1
        ratio = served[1] / served[2]
        assert 3.4 < ratio < 4.7  # ~4x, Fig 8(a)

    def test_opportunity_fairness_gives_idle_cycles_away(self):
        # Job 1 has no backlog: job 2 must receive every cycle.
        s = make("job-fair", seed=3)
        s.on_jobs_changed([job(1), job(2)])
        for _ in range(50):
            s.enqueue(Req(2), 0.0)
        for _ in range(50):
            assert s.dequeue(0.0).job_id == 2
        assert s.wasted_draws == 0

    def test_mandatory_assignment_wastes_idle_segments(self):
        # Ablation: without opportunity fairness, draws landing on the
        # idle job's segment return None.
        s = make("job-fair", seed=4, opportunity_fair=False)
        s.on_jobs_changed([job(1), job(2)])
        for _ in range(200):
            s.enqueue(Req(2), 0.0)
        results = [s.dequeue(0.0) for _ in range(200)]
        assert any(r is None for r in results)
        assert s.wasted_draws > 0

    def test_backlogged_job_never_starved(self):
        # With heavy competition, a backlogged job still gets ~its share.
        s = make("size-fair", seed=5)
        s.on_jobs_changed([job(1, size=15), job(2, size=1)])
        for _ in range(8000):
            s.enqueue(Req(1), 0.0)
            s.enqueue(Req(2), 0.0)
        served = {1: 0, 2: 0}
        for _ in range(8000):
            served[s.dequeue(0.0).job_id] += 1
        # Job 2's fair share is 1/16 = 6.25%; allow statistical slack.
        assert served[2] / 8000 > 0.04

    def test_unknown_backlogged_job_gets_mean_share(self):
        s = make("job-fair", seed=6)
        s.on_jobs_changed([job(1)])
        s.enqueue(Req(99), 0.0)  # job not yet in the table
        assert s.dequeue(0.0).job_id == 99

    def test_no_assignment_serves_uniformly(self):
        s = make("job-fair", seed=7)
        for _ in range(100):
            s.enqueue(Req(1), 0.0)
            s.enqueue(Req(2), 0.0)
        served = {1: 0, 2: 0}
        for _ in range(100):
            served[s.dequeue(0.0).job_id] += 1
        assert served[1] > 20 and served[2] > 20

    def test_jobs_changed_recomputes_shares(self):
        s = make("job-fair", seed=8)
        s.on_jobs_changed([job(1)])
        assert s.current_shares() == pytest.approx({1: 1.0})
        s.on_jobs_changed([job(1), job(2)])
        assert s.current_shares() == pytest.approx({1: 0.5, 2: 0.5})
        s.on_jobs_changed([])
        assert s.current_shares() == {}

    def test_policy_shares_come_from_the_policy(self):
        # One Eq. 1 entry point per scheduler: the controller asks the
        # scheduler, and a discipline without a policy answers {}.
        s = make("user-then-size-fair")
        jobs = [job(1, size=3), job(2, user="u1"), job(3, size=1)]
        assert s.policy_shares(jobs) == Policy.parse(
            "user-then-size-fair").shares(jobs)
        assert s.policy_shares(jobs[:2]) == {1: 0.5, 2: 0.5}
        assert FifoScheduler().policy_shares(jobs) == {}

    def test_backlog_property(self):
        s = make()
        s.enqueue(Req(1), 0.0)
        s.enqueue(Req(1), 0.0)
        assert s.backlog == 2
        s.dequeue(0.0)
        assert s.backlog == 1

    def test_deterministic_given_seed(self):
        def run(seed):
            s = make("job-fair", seed=seed)
            s.on_jobs_changed([job(1), job(2)])
            for _ in range(100):
                s.enqueue(Req(1), 0.0)
                s.enqueue(Req(2), 0.0)
            return [s.dequeue(0.0).job_id for _ in range(100)]

        assert run(42) == run(42)
