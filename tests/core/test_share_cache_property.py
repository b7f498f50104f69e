"""Property-style checks of ``chain_shares`` (Eq. 1) under randomized job
churn (adds, removals, resizes), for flat and composite policies alike.

``Policy.shares`` *is* ``chain_shares`` — there is no cache in front of
it — so the oracle here is an independent one: the share of a job worked
out level by level in plain Python (an even split among the sibling
entities of every non-terminal level, then the job's weight over its
innermost scope's total).
"""

import random

import pytest

from repro.core import JobInfo, Policy
from repro.core.matrix import chain_shares
from repro.core.policy import Level

_WEIGHT = {Level.JOB: lambda j: 1.0, Level.SIZE: lambda j: float(j.size),
           Level.PRIORITY: lambda j: float(j.priority)}


def _reference_shares(levels, jobs):
    """Eq. 1 without matrices: walk each job's scope chain."""
    *heads, tail = levels
    scope = {j.job_id: () for j in jobs}
    share = {j.job_id: 1.0 for j in jobs}
    for level in heads:
        child = {j.job_id: scope[j.job_id] + (getattr(j, level.value),)
                 for j in jobs}
        for j in jobs:
            siblings = {child[o.job_id] for o in jobs
                        if scope[o.job_id] == scope[j.job_id]}
            share[j.job_id] /= len(siblings)
        scope = child
    weight = _WEIGHT[tail]
    for j in jobs:
        total = sum(weight(o) for o in jobs
                    if scope[o.job_id] == scope[j.job_id])
        share[j.job_id] *= weight(j) / total
    return share


def _mutate(rng: random.Random, jobs: dict, next_id: int) -> int:
    r = rng.random()
    if r < 0.40 or not jobs:
        jid = next_id
        next_id += 1
        jobs[jid] = JobInfo(job_id=jid, user=f"u{rng.randrange(4)}",
                            group=f"g{rng.randrange(3)}",
                            size=rng.randrange(1, 9),
                            priority=float(rng.choice([0.5, 1.0, 2.0])))
    elif r < 0.60:
        jobs.pop(rng.choice(sorted(jobs)))
    else:
        jid = rng.choice(sorted(jobs))
        old = jobs[jid]
        jobs[jid] = JobInfo(job_id=jid, user=old.user, group=old.group,
                            size=rng.randrange(1, 9), priority=old.priority)
    return next_id


@pytest.mark.parametrize("spec", ["job-fair", "size-fair", "priority-fair",
                                  "user-then-size-fair",
                                  "group-user-size-fair"])
@pytest.mark.parametrize("seed", [0, 1])
def test_chain_shares_under_random_churn(spec, seed):
    policy = Policy.parse(spec)
    rng = random.Random(seed)
    jobs = {}
    next_id = 0
    for _ in range(300):
        next_id = _mutate(rng, jobs, next_id)
        population = list(jobs.values())
        shares = chain_shares(policy.levels, population)
        assert policy.shares(population) == shares
        if not population:
            assert shares == {}
            continue
        assert sum(shares.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(s > 0 for s in shares.values())
        assert shares == pytest.approx(
            _reference_shares(policy.levels, population), rel=1e-12)
        # Job ids are labels: relabelling (which also permutes the
        # matrix columns) moves each share with its job.
        relabel = dict(zip(sorted(jobs), rng.sample(range(1000, 2000),
                                                    len(jobs))))
        moved = chain_shares(policy.levels, [
            JobInfo(job_id=relabel[j.job_id], user=j.user, group=j.group,
                    size=j.size, priority=j.priority) for j in population])
        assert {relabel[j]: s for j, s in shares.items()} == pytest.approx(
            moved, rel=1e-12)


def test_shares_do_not_depend_on_input_order():
    levels = Policy.parse("group-user-size-fair").levels
    population = [JobInfo(job_id=i, user=f"u{i % 2}", group="g0",
                          size=i + 1) for i in range(6)]
    first = chain_shares(levels, population)
    assert chain_shares(levels, list(reversed(population))) == first
    # Callers own the result: mutating it cannot leak into the next one.
    first[0] = 999.0
    assert chain_shares(levels, population)[0] != 999.0


def test_group_user_size_hand_computed_example():
    # g0: alice {1: 2 nodes, 2: 6 nodes}, bob {3: 1 node}; g1: carol {4}.
    # group 1/2 each -> user 1/2 each inside g0 -> size-proportional.
    jobs = [JobInfo(job_id=1, user="alice", group="g0", size=2),
            JobInfo(job_id=2, user="alice", group="g0", size=6),
            JobInfo(job_id=3, user="bob", group="g0", size=1),
            JobInfo(job_id=4, user="carol", group="g1", size=5)]
    shares = Policy.parse("group-user-size-fair").shares(jobs)
    assert shares == pytest.approx(
        {1: 0.5 * 0.5 * 0.25, 2: 0.5 * 0.5 * 0.75, 3: 0.5 * 0.5, 4: 0.5})
