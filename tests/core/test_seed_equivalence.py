"""Bit-identical equivalence of the statistical-token draw to the seed
implementation.

The pure-Python draw (numpy's pairwise summation order replayed by
``_pairwise_sum``, boundaries accumulated left to right, a bisect
instead of ``np.searchsorted``, and the opportunity-fair re-cut by
``TokenAssignment.cut``, kept across draws until the backlog's
membership or the assignment changes) must not change a single
scheduling decision: same RNG seed, same request stream, same choices.
This module freezes the seed revision's ``TokenAssignment`` /
``StatisticalTokenScheduler`` logic verbatim (numpy-everything, a fresh
assignment per dequeue) and replays identical workloads through both,
at the handful of jobs the paper runs and at the populations of the
ledger's ``job_churn`` (assignments of 129-300 jobs, backlogs above
numpy's 128-element pairwise block). Tokens change in every way a
server changes them: a job-set change, a placement row installed
through a deferred derivation (jobs missing, zero shares dropped), a
re-derivation between two draws over an unchanged backlog, and a crash
that drains every queue mid-stream.
"""

import random

import numpy as np
import pytest

from repro.core import JobInfo, Policy, StatisticalTokenScheduler
from repro.core.fairness import placement_shares
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

    def set_assignment(self, shares):
        shares = {j: s for j, s in shares.items() if s > 0}
        self.assignment = _SeedTokenAssignment(shares) if shares else None

    def drain(self):
        items = [r for job_id in sorted(self._queues)
                 for r in self._queues[job_id]]
        self._queues.clear()
        return items

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


def _row(workload, policy, jobs):
    """A placement-adjusted row (Fig. 5) for one of two servers: each
    job hosted by one or both, so the row misses some jobs; a few more
    dropped from it (an install takes positive cells only, as a
    projection row holds)."""
    presence = {"a": set(), "b": set()}
    for info in jobs:
        for server in workload.choice((("a",), ("b",), ("a", "b"))):
            presence[server].add(info.job_id)
    row = dict(placement_shares(presence, policy.shares(jobs)).get("a", {}))
    for job_id in sorted(row):
        if workload.random() < 0.05:
            del row[job_id]
    return row


def _replay(policy_name, seed, steps, make_scheduler, dequeue, jobs_changed,
            set_row, population):
    """Drive a scheduler through a deterministic workload; return the
    (choice, request-seq) trace, the most jobs ever backlogged and how
    many draws met an assignment derived since the previous draw over
    the same backlog."""
    n_jobs, n_ids, realloc = population
    policy = Policy.parse(policy_name)
    scheduler = make_scheduler(policy, seed)
    jobs = _jobs(n_jobs)
    jobs_changed(scheduler, jobs)
    workload = random.Random(seed * 7 + 1)
    trace = []
    pending = {}
    widest = 0
    rederived = False
    last_backlog = None
    same_backlog = 0
    for step in range(steps):
        if workload.random() < 0.55 or not pending:
            job_id = workload.randrange(n_ids)
            scheduler.enqueue(_Req(job_id, step), 0.0)
            pending[job_id] = pending.get(job_id, 0) + 1
            widest = max(widest, len(pending))
        else:
            backlog = sorted(pending)
            same_backlog += rederived and backlog == last_backlog
            rederived = False
            last_backlog = backlog
            req = dequeue(scheduler)
            if req is not None:
                pending[req.job_id] -= 1
                if not pending[req.job_id]:
                    del pending[req.job_id]
            trace.append(None if req is None else (req.job_id, req.seq))
        if step % 2500 == 2499:
            jobs = _jobs(realloc(step), cycle=step % 4 + 2)
            jobs_changed(scheduler, jobs)
            rederived = True
        elif step % 41 == 40:
            # Between two draws: a placement row, or the same job set
            # derived again (a new assignment with the same shares).
            if workload.random() < 0.6:
                set_row(scheduler, _row(workload, policy, jobs))
            else:
                jobs_changed(scheduler, jobs)
            rederived = True
        if step == steps // 2:
            # A crash: every queued request goes; arrivals go on.
            trace.append([(r.job_id, r.seq) for r in scheduler.drain()])
            pending.clear()
    return trace, widest, same_backlog


def _same_trace(policy_name, seed, population):
    """Replay one workload through both schedulers, assert bit-identical
    dequeue traces (job AND request identity); return the most jobs
    ever backlogged."""
    seed_trace, widest, same_backlog = _replay(
        policy_name, seed, 12000,
        lambda p, s: _SeedScheduler(p, np.random.default_rng(s)),
        lambda sch: sch.dequeue(),
        lambda sch, jobs: sch.on_jobs_changed(jobs),
        lambda sch, row: sch.set_assignment(row),
        population)
    new_trace, _, _ = _replay(
        policy_name, seed, 12000,
        lambda p, s: StatisticalTokenScheduler(p, np.random.default_rng(s)),
        lambda sch: sch.dequeue(0.0),
        lambda sch, jobs: sch.on_jobs_changed(jobs),
        # As the controller installs a row: deferred to the next draw.
        lambda sch, row: sch.defer_tokens(lambda: sch.set_assignment(row)),
        population)
    assert seed_trace == new_trace
    assert same_backlog > 20, same_backlog
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
