"""The cluster-shared Fig. 5 projection memo (DESIGN.md §5, *Token allocation*).

After a scatter every controller of a cluster holds the same merged
table and placement map, so the N projection requests of one epoch must
cost one solve — and a server that crashed and came back must still end
up with the row its own state calls for.

A projection is requested when a server's assignment is first read (a
worker's draw, or :attr:`StatisticalTokenScheduler.assignment`), not at
the scatter: these clusters have no clients, so nothing is requested
until the test reads.
"""

import pytest

import repro.bb.controller as controller_module
from repro.bb import Cluster, ClusterConfig, ServerConfig
from repro.core import JobInfo, TokenAssignment
from repro.units import GB

from ..core.placement_reference import reference_placement_shares

LAMBDA = 0.05


def _tree_cluster(monkeypatch, n_servers=16, fanout=4):
    """A sync-only cluster (no clients: jobs are seeded straight into the
    monitors) whose projection requests are recorded by content."""
    requests = []
    real = controller_module.placement_shares

    def spy(presence, global_shares, **kwargs):
        requests.append((tuple(sorted((s, tuple(sorted(j)))
                                      for s, j in presence.items())),
                         tuple(sorted(global_shares.items()))))
        return real(presence, global_shares, **kwargs)

    monkeypatch.setattr(controller_module, "placement_shares", spy)
    cluster = Cluster(ClusterConfig(
        n_servers=n_servers, policy="size-fair",
        server=ServerConfig(bandwidth=1 * GB, n_workers=1,
                            sync_interval=LAMBDA, sync_timeout=0.02,
                            sync_processing_time=0.001,
                            sync_tree_fanout=fanout)))
    servers = list(cluster.servers.values())
    for k, server in enumerate(servers):
        server.monitor.observe(JobInfo(job_id=100 + k, user=f"u{k}", size=1))
    # Fig. 5's shape on three of them: a wide job over-entitled to the
    # servers that host it, so the projection is infeasible.
    wide = JobInfo(job_id=1, user="wide", size=16)
    for server in servers[:3]:
        server.monitor.observe(wide)
    return cluster, requests


def _read_assignments(cluster):
    """Read every server's assignment, as a draw would."""
    return {name: server.scheduler.assignment
            for name, server in cluster.servers.items()}


def _assert_rows_installed(cluster):
    """Every live server runs the row its own merged state projects to."""
    for server in cluster.servers.values():
        presence = {host: set(jobs)
                    for host, jobs in server.controller.presence.items()
                    if jobs}
        shares = server.policy_shares(server.monitor.table.active_jobs())
        row = reference_placement_shares(presence, shares)[server.name]
        assert server.scheduler.assignment.as_dict() == pytest.approx(
            TokenAssignment(row).as_dict(), rel=1e-12, abs=0.0), server.name


def test_one_solve_per_distinct_merged_state(monkeypatch):
    cluster, requests = _tree_cluster(monkeypatch)
    late = JobInfo(job_id=2, user="late", size=8)
    bb5 = cluster.servers["bb5"]
    cluster.run(until=3.4 * LAMBDA)
    # The scatter left one pending derivation per server, none run yet.
    assert cluster.sync_stats()["placement_requests"] == len(requests) == 0
    # Reading all 16 assignments: 16 requests, one state, one solve.
    _read_assignments(cluster)
    stats = cluster.sync_stats()
    assert stats["placement_requests"] == len(requests) == 16
    assert len(set(requests)) == 1
    assert stats["placement_solves"] == 1
    _read_assignments(cluster)         # derived once, read for free
    assert cluster.sync_stats()["placement_requests"] == 16

    bb5.monitor.observe(late)          # a job arrives on one server
    cluster.run(until=6.4 * LAMBDA)
    _assert_rows_installed(cluster)
    stats = cluster.sync_stats()
    assert stats["placement_requests"] == len(requests) == 32
    distinct = len(set(requests))
    assert 2 <= distinct <= cluster.placement_memo.BOUND
    assert stats["placement_solves"] == distinct


def test_reset_after_crash_installs_the_right_row(monkeypatch):
    cluster, requests = _tree_cluster(monkeypatch)
    bb3 = cluster.servers["bb3"]
    cluster.run(until=3.4 * LAMBDA)
    _assert_rows_installed(cluster)
    before = bb3.scheduler.assignment.as_dict()

    cluster.crash_server("bb3")        # Controller.reset(): presence gone
    assert bb3.controller.presence == {}
    cluster.run(until=5.4 * LAMBDA)
    cluster.restart_server("bb3")
    cluster.run(until=8.4 * LAMBDA)
    # Back, but hosting nothing yet: bb3's own view is a second state,
    # which every server now holds.
    assert bb3.controller.presence["bb3"] == frozenset()
    _read_assignments(cluster)
    assert len(requests) == 32
    assert len(set(requests)) == 2
    assert cluster.sync_stats()["placement_solves"] == 2

    # Its client re-registers: the job is local to bb3 again, and bb3 is
    # back in the pre-crash state, which the memo still holds.
    bb3.monitor.observe(JobInfo(job_id=103, user="u3", size=1))
    cluster.run(until=11.4 * LAMBDA)
    _assert_rows_installed(cluster)
    assert bb3.scheduler.assignment.as_dict() == before
    stats = cluster.sync_stats()
    assert stats["placement_requests"] == len(requests) == 48
    assert len(set(requests)) == 2 and requests[-1] == requests[0]
    assert stats["placement_solves"] == 2
    assert len(cluster.placement_memo) == 2


@pytest.mark.parametrize("fanout", [0, 2, 4])
def test_restarted_server_hosting_nothing_is_forgotten(monkeypatch, fanout):
    """A gather reply speaks for its own subtree only: no sibling's older
    copy of ``presence["bb3"]`` may overwrite the empty set the restarted
    bb3 itself reports (presence rows carry no freshness stamp)."""
    cluster, _ = _tree_cluster(monkeypatch, fanout=fanout)
    controllers = [s.controller for s in cluster.servers.values()]
    cluster.run(until=3.4 * LAMBDA)
    assert all(c.presence["bb3"] == {103} for c in controllers)

    cluster.crash_server("bb3")
    cluster.run(until=5.4 * LAMBDA)
    cluster.restart_server("bb3")          # job 103's client is gone
    height = controller_module.subtree_height(
        len(controllers), fanout or len(controllers) - 1, 0)
    cluster.run(until=(5.4 + height + 1) * LAMBDA)
    stale = {c.server.name: set(c.presence["bb3"])
             for c in controllers if c.presence["bb3"]}
    assert not stale
