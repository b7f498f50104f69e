"""What an opportunity-fair draw costs the token, counted, not timed.

Opportunity fairness re-cuts [0, 1] over the backlogged jobs
(:meth:`TokenAssignment.cut`), an O(backlog) pass. The token scheduler
keeps the cut until the backlog's membership (``QueueSet.changes``) or
the installed assignment (by identity) changes, and serves a lone
backlogged job before it looks at the cut at all (DESIGN.md §5, *The
opportunity-fair cut, kept per backlog*). On the ledger's full-size
``job_churn`` at seed 12, 3,212 of its 6,528 draws cut again: the rest
met the backlog and the tokens of the draw before. The scripted backlog
below has that workload's shape — about a hundred backlogged jobs of
``job_churn``'s population, requests arriving and served in random
turn, a token re-derivation every six draws or so — and the count has no
noise, so the gate sits at 60 % of the multi-job draws: a scheduler that
cuts at every draw (100 %) fails here without a stopwatch.

Each way the cut's inputs change must cut again: a new assignment over
the same backlog, a job joining or leaving the backlog, and a crash's
``drain()`` followed by a refill of the very same jobs. The ablation
(``opportunity_fair=False``) draws over the whole assignment and never
cuts.
"""

import random

import numpy as np
import pytest

from repro.core import JobInfo, Policy, StatisticalTokenScheduler
from repro.core.tokens import TokenAssignment

POLICY = Policy.parse("group-user-size-fair")


class _Req:
    __slots__ = ("job_id", "cost")

    def __init__(self, job_id):
        self.job_id = job_id
        self.cost = 1.0


def _job(j):
    """Job *j* of ``job_churn``'s population."""
    return JobInfo(job_id=j + 1, user=f"u{j % 16}", group=f"g{j % 16 % 3}",
                   size=1 + (j * 5) % 8)


@pytest.fixture
def cuts(monkeypatch):
    """Counts :meth:`TokenAssignment.cut` calls."""
    count = [0]
    real = TokenAssignment.cut

    def counting(self, jobs):
        count[0] += 1
        return real(self, jobs)

    monkeypatch.setattr(TokenAssignment, "cut", counting)
    return count


def _scheduler(opportunity_fair=True, seed=0):
    return StatisticalTokenScheduler(POLICY, np.random.default_rng(seed),
                                     opportunity_fair=opportunity_fair)


def _fill(scheduler, job_ids, depth=4):
    for job_id in job_ids:
        for _ in range(depth):
            scheduler.enqueue(_Req(job_id), 0.0)


def test_a_draw_cuts_again_only_when_an_input_changed(cuts):
    """Each live job keeps three requests in flight: a served one comes
    back later, in random turn with the draws. About every sixth draw
    one of the eight oldest jobs exits and a new one arrives, and the
    controller hands over a derivation the next draw runs."""
    rng = random.Random(12)
    scheduler = _scheduler()
    live = [_job(j) for j in range(90)]
    scheduler.on_jobs_changed(live)
    _fill(scheduler, [info.job_id for info in live], depth=3)
    returning = []
    multi = draws = 0
    widths = []
    while draws < 4000:
        if returning and rng.random() < 0.5:
            job_id = returning.pop(rng.randrange(len(returning)))
            scheduler.enqueue(_Req(job_id), 0.0)
            continue
        widths.append(len(scheduler.queues.jobs))
        multi += widths[-1] > 1
        served = scheduler.dequeue(0.0)
        draws += 1
        if served.job_id in {info.job_id for info in live}:
            returning.append(served.job_id)
        if rng.random() < 1 / 6:
            gone = rng.choice(live[:8])
            live.remove(gone)
            returning = [j for j in returning if j != gone.job_id]
            live.append(_job(live[-1].job_id))
            returning += [live[-1].job_id] * 3
            jobs = list(live)
            scheduler.defer_tokens(lambda: scheduler.on_jobs_changed(jobs))
    assert multi == draws and 90 <= min(widths) and max(widths) < 160
    # Measured on this tree: 2,130 cuts over 4,000 multi-job draws
    # (53.3 %); a cut at every draw is 100 %.
    assert cuts[0] / multi <= 0.60


def test_a_new_assignment_over_the_same_backlog_cuts_again(cuts):
    scheduler = _scheduler()
    scheduler.on_jobs_changed([_job(j) for j in range(4)])
    _fill(scheduler, [1, 2, 3, 4])
    scheduler.dequeue(0.0)
    scheduler.dequeue(0.0)
    assert cuts[0] == 1 and scheduler.queues.jobs == [1, 2, 3, 4]
    # The same jobs derived again: equal shares, another assignment.
    scheduler.on_jobs_changed([_job(j) for j in range(4)])
    scheduler.dequeue(0.0)
    assert cuts[0] == 2
    scheduler.defer_tokens(lambda: scheduler.set_assignment({1: 0.5, 3: 0.5}))
    scheduler.dequeue(0.0)
    assert cuts[0] == 3


def test_a_membership_change_cuts_again(cuts):
    scheduler = _scheduler()
    scheduler.on_jobs_changed([_job(j) for j in range(4)])
    _fill(scheduler, [1, 2], depth=1)
    _fill(scheduler, [3], depth=10)
    scheduler.dequeue(0.0)
    assert cuts[0] == 1
    scheduler.enqueue(_Req(4), 0.0)            # a job joins
    scheduler.dequeue(0.0)
    assert cuts[0] == 2
    while len(scheduler.queues.jobs) == 4:     # until a queue empties
        scheduler.dequeue(0.0)
    assert cuts[0] == 2                        # nothing left in between
    scheduler.dequeue(0.0)
    assert cuts[0] == 3
    while len(scheduler.queues.jobs) > 1:
        scheduler.dequeue(0.0)
    served = cuts[0]
    scheduler.dequeue(0.0)                     # a lone job: no cut
    assert cuts[0] == served


def test_a_drain_and_a_refill_of_the_same_jobs_cuts_again(cuts):
    scheduler = _scheduler()
    scheduler.on_jobs_changed([_job(j) for j in range(3)])
    _fill(scheduler, [1, 2, 3])
    scheduler.dequeue(0.0)
    assert cuts[0] == 1
    scheduler.drain()
    _fill(scheduler, [1, 2, 3])
    assert scheduler.queues.jobs == [1, 2, 3]
    scheduler.dequeue(0.0)
    assert cuts[0] == 2


def test_the_ablation_never_cuts(cuts):
    scheduler = _scheduler(opportunity_fair=False)
    scheduler.on_jobs_changed([_job(j) for j in range(6)])
    _fill(scheduler, [1, 2, 3], depth=50)
    for _ in range(50):
        scheduler.dequeue(0.0)
    assert scheduler.draws == 50 and scheduler.wasted_draws > 0
    assert cuts[0] == 0
