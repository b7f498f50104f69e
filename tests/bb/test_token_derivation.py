"""Tokens are derived when a worker draws (DESIGN.md §5, *Token allocation*).

``Controller.refresh_tokens`` captures the derivation's inputs at a
job-set change and the statistical token scheduler runs the derivation
at the first draw that reads it. These tests hold that deferral to the
eager schedule it replaced: same draws, same installed assignments, and
no read of the live table at the draw.
"""

from collections import namedtuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bb import Cluster, ClusterConfig, ServerConfig
from repro.bb.client import ClientConfig
from repro.core import JobInfo
from repro.core.jobinfo import JobRecord
from repro.core.scheduler import Scheduler, StatisticalTokenScheduler

Req = namedtuple("Req", "job_id cost")

PEERS = ("bb1", "bb2")


class EagerTokens(StatisticalTokenScheduler):
    """The eager twin: runs each derivation at the change that made it."""

    __slots__ = ()
    defer_tokens = Scheduler.defer_tokens


def _server(eager=False, policy="size-fair"):
    """A one-server cluster's server, driven by hand (no engine run)."""
    server = Cluster(ClusterConfig(n_servers=1, policy=policy,
                                   seed=7)).servers["bb0"]
    if eager:
        lazy = server.scheduler
        server.scheduler = EagerTokens(lazy.policy, lazy.rng)
    return server


def _info(job_id):
    return JobInfo(job_id=job_id, user=f"u{job_id % 3}", size=job_id)


_jobs = st.integers(1, 6)
_rows = st.fixed_dictionaries(
    {peer: st.frozensets(_jobs, max_size=3) for peer in PEERS})
_records = st.lists(st.tuples(_jobs, st.booleans()), min_size=1, max_size=3)
_ops = st.lists(st.one_of(
    st.tuples(st.just("observe"), _jobs),
    st.tuples(st.just("deactivate"), _jobs),
    # A scatter: merge, then refresh. A gather: merge, no refresh.
    st.tuples(st.sampled_from(["push", "gather"]), _records, _rows),
    st.tuples(st.just("enqueue"), _jobs),
    st.tuples(st.just("dequeue")),
), min_size=4, max_size=40)


def _replay(server, ops):
    """Apply *ops*; returns each dequeue's outcome and the assignment it
    left, then the final assignment."""
    controller, table = server.controller, server.monitor.table
    trace = []
    for step, op in enumerate(ops, start=1):
        kind = op[0]
        if kind == "observe":
            if server.monitor.observe(_info(op[1])):
                controller.refresh_tokens()
        elif kind == "deactivate":
            if table.deactivate(op[1]):
                controller.refresh_tokens()
        elif kind in ("push", "gather"):
            table.merge([JobRecord(_info(j), float(step), active)
                         for j, active in op[1]])
            controller._learn_presence(op[2])
            if kind == "push":
                controller.refresh_tokens()
        elif kind == "enqueue":
            server.scheduler.enqueue(Req(op[1], 1.0), 0.0)
        else:
            served = server.scheduler.dequeue(0.0)
            trace.append((served, server.scheduler.current_shares()))
    trace.append(server.scheduler.current_shares())
    return trace


@settings(max_examples=60)
@given(ops=_ops, policy=st.sampled_from(["size-fair", "job-fair"]))
def test_on_demand_derivation_equals_eager(ops, policy):
    eager, lazy = _server(eager=True, policy=policy), _server(policy=policy)
    assert _replay(lazy, ops) == _replay(eager, ops)


def test_a_gather_after_the_refresh_is_not_read_at_the_draw():
    """An interior node merges its gather without a refresh: the first
    draw after it must still see the tokens of the last change."""
    server = _server()
    server.monitor.observe(_info(1))
    server.controller.refresh_tokens()
    server.monitor.table.merge([JobRecord(_info(3), 1.0, True)])
    server.scheduler.enqueue(Req(1, 1.0), 0.0)
    assert server.scheduler.dequeue(0.0) == Req(1, 1.0)
    assert server.scheduler.current_shares() == {1: 1.0}
    # The next change takes the merged job in.
    server.controller.refresh_tokens(force=True)
    assert server.scheduler.current_shares() == {1: 0.25, 3: 0.75}


class CountingTokens(StatisticalTokenScheduler):
    """Records the active set of every Eq. 1 derivation it installs."""

    __slots__ = ("derived",)

    def __init__(self, policy, rng):
        super().__init__(policy, rng)
        self.derived = []

    def on_jobs_changed(self, active_jobs):
        self.derived.append([info.job_id for info in active_jobs])
        super().on_jobs_changed(active_jobs)


def test_changes_before_a_draw_cost_one_derivation():
    server = _server()
    plain = server.scheduler
    server.scheduler = counting = CountingTokens(plain.policy, plain.rng)
    for job_id in (1, 2, 3):           # a later change replaces the pending
        server.monitor.observe(_info(job_id))
        server.controller.refresh_tokens()
    assert counting.derived == []
    counting.enqueue(Req(2, 1.0), 0.0)
    counting.enqueue(Req(2, 1.0), 0.0)
    counting.dequeue(0.0)
    counting.dequeue(0.0)
    assert counting.assignment is not None
    assert counting.derived == [[1, 2, 3]]


def test_a_heartbeat_that_reactivates_a_job_re_tokens():
    cluster = Cluster(ClusterConfig(
        n_servers=1,
        server=ServerConfig(heartbeat_timeout=0.05,
                            expire_check_interval=0.01),
        client=ClientConfig(heartbeat_interval=0.2)))
    server = cluster.servers["bb0"]
    client = cluster.add_client(JobInfo(job_id=1, user="u", size=1),
                                client_id="c0")
    cluster.engine.process(client.register_all())
    cluster.run(until=0.15)
    assert not server.monitor.table.is_active(1)
    assert server.scheduler.current_shares() == {}
    cluster.run(until=0.22)            # the beat at t = 0.2 reactivated it
    assert server.monitor.table.is_active(1)
    assert server.scheduler.current_shares() == {1: 1.0}
