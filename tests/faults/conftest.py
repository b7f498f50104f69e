"""Shared fixtures for the fault suite.

Every test here runs under a wall-clock watchdog: a fault-injection bug
whose failure mode is a deadlock (a worker parked on an event nobody
fires) would otherwise hang the whole CI job rather than fail one test.
"""

import signal

import pytest

from repro.bb import Cluster, ClusterConfig, ServerConfig
from repro.bb.client import ClientConfig
from repro.core import JobInfo
from repro.core.fairness import all_gather_merge
from repro.core.jobinfo import JobStatusTable

#: seconds of real time a single fault test may take before it is
#: declared deadlocked.
WATCHDOG_SECONDS = 120


@pytest.fixture(autouse=True)
def _watchdog():
    """Abort (don't hang) any fault test stuck past the wall-clock cap."""
    if not hasattr(signal, "SIGALRM"):  # pragma: no cover - non-POSIX
        yield
        return

    def timed_out(signum, frame):  # pragma: no cover - fires on deadlock
        raise TimeoutError(
            f"fault test exceeded {WATCHDOG_SECONDS}s wall clock "
            "(likely a simulation deadlock)")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(WATCHDOG_SECONDS)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def make_cluster():
    """Factory for fault-ready clusters (journal + log + FT clients)."""

    def make(n_servers=2, seed=0, journal=True, backend="log",
             rpc_timeout=0.25, rpc_retries=-1, retry_backoff=0.05,
             sync_timeout=0.5, heartbeat_interval=0.5, **server_kw):
        cfg = ClusterConfig(
            n_servers=n_servers, policy="job-fair", seed=seed,
            journal=journal, storage_backend=backend,
            client=ClientConfig(rpc_timeout=rpc_timeout,
                                rpc_retries=rpc_retries,
                                retry_backoff=retry_backoff,
                                heartbeat_interval=heartbeat_interval),
            server=ServerConfig(sync_timeout=sync_timeout, **server_kw))
        cluster = Cluster(cfg)
        cluster.fs.makedirs("/fs/d")
        return cluster

    return make


@pytest.fixture
def job():
    """JobInfo factory matching the bb-suite convention."""

    def make(jid, user="alice", group="g0", size=1):
        return JobInfo(job_id=jid, user=user, group=group, size=size)

    return make


def assert_all_gather_state(cluster):
    """Every live server's job table equals the paper's all-gather.

    The reference is pure: each live server contributes only the rows of
    the jobs it hosts itself (what it knows without any sync; a job no
    live server hosts any more — departed — is contributed by whoever
    still lists it), and ``core.fairness.all_gather_merge`` merges them
    everywhere. A live table must list exactly the reference's jobs
    with the same identity and activity, and may never hold a heartbeat
    newer than the hosting server's own — whatever a fault delayed.
    """
    live = [s for s in cluster.servers.values() if not s.crashed]
    hosted = set().union(*(s.monitor.active_local_jobs() for s in live))
    tables = []
    for server in live:
        local = server.monitor.active_local_jobs()
        table = JobStatusTable(server.monitor.table.heartbeat_timeout)
        table.merge([e for e in server.monitor.table.snapshot()
                     if e.info.job_id in local
                     or e.info.job_id not in hosted])
        tables.append(table)
    all_gather_merge(tables)
    reference = {e.info.job_id: e for e in tables[0].snapshot()}
    assert reference  # jobs actually registered
    for server in live:
        rows = {e.info.job_id: e for e in server.monitor.table.snapshot()}
        assert sorted(rows) == sorted(reference), server.name
        for job_id, row in rows.items():
            ref = reference[job_id]
            assert row.info == ref.info, (server.name, job_id)
            assert row.active == ref.active, (server.name, job_id)
            assert row.last_heartbeat <= ref.last_heartbeat, (
                server.name, job_id)
