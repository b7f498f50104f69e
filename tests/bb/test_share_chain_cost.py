"""What a job-set change costs Eq. 1, counted, not timed.

A token scheduler keeps one :class:`ShareChain` and hands it every job
set its derivations see; the chain evaluates again only the scopes a
change touched and the scopes under a prefix whose child count changed
(DESIGN.md §5, *Eq. 1 in closed form*). The ledger's ``job_churn`` is
that loop at scale: over its 1,088 token derivations a fresh evaluation
walks 110 jobs on average, yet 8.9 % of the job shares are evaluated
again by the chain. The scripted churn below has ``job_churn``'s shape —
16 users in 3 groups, sizes 1-8, about a hundred live jobs, arrivals
and exits one or two at a time — and the count has no noise, so the
gate sits at 15 % of a fresh evaluation per change: a chain that
re-walks whole groups, or every job, fails here without a stopwatch.

The chain holds no model state: after a crash and restart, with jobs
re-registering changed, the server installs what a fresh evaluation of
its table gives.
"""

import random

import pytest

from repro.bb import Cluster, ClusterConfig
from repro.core import (JobInfo, Policy, ShareChain, TokenAssignment,
                        chain_shares)

from ..core.sync_reference import reference_chain_shares

POLICY = Policy.parse("group-user-size-fair")


def _job(j, **changes):
    """Job *j* of ``job_churn``'s population."""
    fields = dict(job_id=j + 1, user=f"u{j % 16}", group=f"g{j % 16 % 3}",
                  size=1 + (j * 5) % 8)
    fields.update(changes)
    return JobInfo(**fields)


def _churn(n_jobs=384, live=110, seed=0):
    """Job sets in job-id order, one per change. One or two jobs arrive
    at a time until *live* run; from then on, arrivals and exits of one
    or two jobs (among the eight oldest) come in random turn, until
    every job has come and gone."""
    rng = random.Random(seed)
    arriving = [_job(j) for j in range(n_jobs)]
    running = {}
    while arriving or running:
        if arriving and (len(running) < live or rng.random() < 0.5):
            batch = rng.choice((1, 2))
            for info in arriving[:batch]:
                running[info.job_id] = info
            del arriving[:batch]
        else:
            oldest = sorted(running)[:8]
            for job_id in rng.sample(oldest, min(len(oldest),
                                                 rng.choice((1, 2)))):
                del running[job_id]
        yield [running[job_id] for job_id in sorted(running)]


def test_a_change_evaluates_what_it_touched():
    chain = ShareChain(POLICY.levels)
    fresh = changes = 0
    for jobs in _churn():
        assert chain.update(jobs) == reference_chain_shares(POLICY.levels,
                                                            jobs)
        fresh += len(jobs)
        changes += 1
    assert changes > 500 and fresh / changes > 100
    # Measured on this tree: 5,406 of the 58,098 job shares a fresh
    # evaluation per change computes (9.3 %).
    assert chain.evaluated / fresh <= 0.15


def _register(server, infos):
    """Jobs report to *server* as their clients' requests would."""
    for info in infos:
        if server.monitor.observe(info, client_id=f"c{info.job_id}"):
            server.controller.refresh_tokens()


@pytest.mark.parametrize("read_while_empty", [False, True])
def test_restart_installs_what_a_fresh_evaluation_gives(read_while_empty):
    server = Cluster(ClusterConfig(n_servers=1, policy=POLICY.name,
                                   seed=7)).servers["bb0"]
    _register(server, [_job(j) for j in range(40)])
    assert server.scheduler.assignment is not None   # the chain holds 40
    server.crash()
    server.restart()
    if read_while_empty:
        assert server.scheduler.assignment is None   # the chain resets
    # Back come some jobs as they were, some resized, some regrouped;
    # some never do, and a new one arrives.
    _register(server, [_job(j) for j in range(0, 12)]
              + [_job(j, size=9) for j in range(12, 18)]
              + [_job(j, group="g9") for j in range(18, 22)]
              + [_job(99)])
    active = server.monitor.table.active_jobs()
    assert len(active) == 23
    assert (server.scheduler.assignment.as_dict()
            == TokenAssignment(chain_shares(POLICY.levels,
                                            active)).as_dict())
