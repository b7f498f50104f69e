"""Bit-identical equivalence of the statistical-token draw to the seed
implementation.

The pure-Python draw (numpy's pairwise summation order replayed by
``_pairwise_sum``, boundaries accumulated left to right, a bisect or a
linear scan instead of ``np.searchsorted``, and the opportunity-fair
re-cut done in place by ``TokenAssignment.draw_among``) must not change
a single scheduling decision: same RNG seed, same request stream, same
choices. This module freezes the seed revision's ``TokenAssignment`` /
``StatisticalTokenScheduler`` logic verbatim (numpy-everything, a fresh
assignment per dequeue) and replays identical workloads through both,
at the handful of jobs the paper runs and at the populations of the
ledger's ``job_churn`` (assignments of 129-300 jobs, backlogs above
numpy's 128-element pairwise block).
"""

import random

import numpy as np
import pytest

from repro.core import JobInfo, Policy, StatisticalTokenScheduler
from repro.core.tokens import _pairwise_sum


class _SeedTokenAssignment:
    """Verbatim seed-revision TokenAssignment (pre-optimisation)."""

    def __init__(self, shares):
        items = sorted(shares.items())
        values = np.array([s for _, s in items], dtype=float)
        total = values.sum()
        self.job_ids = [job_id for job_id, _ in items]
        self.shares = values / total
        self._cum = np.cumsum(self.shares)
        self._cum[-1] = 1.0
        self._index = {job_id: i for i, job_id in enumerate(self.job_ids)}

    def draw(self, u):
        idx = int(np.searchsorted(self._cum, u, side="right"))
        return self.job_ids[min(idx, len(self.job_ids) - 1)]

    def share(self, job_id):
        return float(self.shares[self._index[job_id]])

    def __contains__(self, job_id):
        return job_id in self._index

    def __len__(self):
        return len(self.job_ids)


class _SeedScheduler:
    """Verbatim seed-revision statistical token scheduler dequeue logic,
    over a simple dict-of-lists queue set (sorted() per dequeue, fresh
    restricted assignment per draw — the pre-PR hot path)."""

    def __init__(self, policy, rng):
        self.policy = policy
        self.rng = rng
        self._queues = {}
        self.assignment = None

    def enqueue(self, request, now=0.0):
        self._queues.setdefault(request.job_id, []).append(request)

    def on_jobs_changed(self, active_jobs):
        shares = self.policy.shares(active_jobs)
        self.assignment = _SeedTokenAssignment(shares) if shares else None

    def _pop(self, job_id):
        queue = self._queues[job_id]
        item = queue.pop(0)
        if not queue:
            del self._queues[job_id]
        return item

    def dequeue(self):
        if not self._queues:
            return None
        backlogged = sorted(self._queues)
        if self.assignment is None:
            job_id = backlogged[int(self.rng.integers(0, len(backlogged)))]
            return self._pop(job_id)
        mean_share = 1.0 / max(len(self.assignment), 1)
        shares = {}
        for job_id in backlogged:
            if job_id in self.assignment:
                share = self.assignment.share(job_id)
                shares[job_id] = share if share > 0 else mean_share
            else:
                shares[job_id] = mean_share
        choice = _SeedTokenAssignment(shares).draw(float(self.rng.random()))
        return self._pop(choice)


class _Req:
    __slots__ = ("job_id", "cost", "seq")

    def __init__(self, job_id, seq):
        self.job_id = job_id
        self.cost = 1.0
        self.seq = seq


def _jobs(n, cycle=5):
    return [JobInfo(job_id=i, user=f"u{i % 3}", group=f"g{i % 2}",
                    size=(i % cycle) + 1) for i in range(n)]


#: (jobs in the first assignment, job ids requests draw from, size of
#: the reallocation at step *s*): the paper's handful of jobs, and the
#: ledger's churn populations on both sides of numpy's 128-element
#: pairwise block.
SMALL = (10, 14, lambda step: step % 8 + 2)
LARGE = (300, 320, lambda step: 129 + step % 172)


def _replay(policy_name, seed, steps, make_scheduler, dequeue, jobs_changed,
            population):
    """Drive a scheduler through a deterministic workload; return the
    (choice, request-seq) trace and the most jobs ever backlogged."""
    n_jobs, n_ids, realloc = population
    scheduler = make_scheduler(policy_name, seed)
    jobs_changed(scheduler, _jobs(n_jobs))
    workload = random.Random(seed * 7 + 1)
    trace = []
    pending = {}
    widest = 0
    for step in range(steps):
        if workload.random() < 0.55 or not pending:
            job_id = workload.randrange(n_ids)
            scheduler.enqueue(_Req(job_id, step), 0.0)
            pending[job_id] = pending.get(job_id, 0) + 1
            widest = max(widest, len(pending))
        else:
            req = dequeue(scheduler)
            if req is not None:
                pending[req.job_id] -= 1
                if not pending[req.job_id]:
                    del pending[req.job_id]
            trace.append(None if req is None else (req.job_id, req.seq))
        if step % 2500 == 2499:
            jobs_changed(scheduler, _jobs(realloc(step),
                                          cycle=step % 4 + 2))
    return trace, widest


def _same_trace(policy_name, seed, population):
    """Replay one workload through both schedulers, assert bit-identical
    dequeue traces (job AND request identity); return the most jobs
    ever backlogged."""
    seed_trace, widest = _replay(
        policy_name, seed, 12000,
        lambda p, s: _SeedScheduler(Policy.parse(p), np.random.default_rng(s)),
        lambda sch: sch.dequeue(),
        lambda sch, jobs: sch.on_jobs_changed(jobs),
        population)
    new_trace, _ = _replay(
        policy_name, seed, 12000,
        lambda p, s: StatisticalTokenScheduler(Policy.parse(p),
                                               np.random.default_rng(s)),
        lambda sch: sch.dequeue(0.0),
        lambda sch, jobs: sch.on_jobs_changed(jobs),
        population)
    assert seed_trace == new_trace
    return widest


POLICIES = ["job-fair", "size-fair", "user-size-fair"]


@pytest.mark.parametrize("policy_name", POLICIES)
@pytest.mark.parametrize("seed", [0, 3])
def test_optimised_scheduler_matches_seed_implementation(policy_name, seed):
    """Same seeds -> same traces at the paper's handful of jobs."""
    _same_trace(policy_name, seed, SMALL)


@pytest.mark.parametrize("policy_name", POLICIES)
@pytest.mark.parametrize("seed", [0, 3])
def test_matches_seed_implementation_at_churn_populations(policy_name, seed):
    """Same seeds -> same traces with 129-300-job assignments, and the
    backlog crosses numpy's 128-element pairwise block."""
    assert _same_trace(policy_name, seed, LARGE) > 128


def test_pairwise_sum_is_numpys_sum_bit_for_bit():
    """``_pairwise_sum`` adds in ``np.sum``'s order: sequential below 8,
    eight accumulators up to 128, halves cut at a multiple of 8 above.
    Magnitudes spanning twelve decades make any other order round
    differently."""
    rng = np.random.default_rng(27)
    for n in list(range(1, 601)) + [1000, 2048, 4097, 9000]:
        values = (rng.random(n) * 10.0 ** rng.uniform(-6, 6, n)).tolist()
        assert _pairwise_sum(values) == float(np.sum(values)), n
