"""Tests for operational statistics and the cluster summary."""

import pytest

from repro.bb import Cluster, ClusterConfig, server_stats
from repro.core import JobInfo
from repro.units import MB


@pytest.fixture
def busy_cluster():
    cluster = Cluster(ClusterConfig(n_servers=2, policy="size-fair",
                                    stripe_count=2))
    cluster.fs.makedirs("/fs/data")
    client = cluster.add_client(JobInfo(job_id=1, user="u", size=4))

    def app():
        yield from client.create("/fs/data/f")
        for _ in range(5):
            yield from client.write("/fs/data/f", 0, 4 * MB)
            yield from client.read("/fs/data/f", 0, 4 * MB)

    cluster.engine.process(app())
    cluster.run(until=2.0)
    return cluster


class TestServerStats:
    def test_counters_reflect_activity(self, busy_cluster):
        stats = [server_stats(s) for s in busy_cluster.servers.values()]
        assert sum(s.served_requests for s in stats) >= 10
        assert sum(s.served_bytes for s in stats) == 40 * MB
        assert all(s.backlog == 0 for s in stats)
        assert all(s.errors == 0 for s in stats)
        assert all(s.active_jobs == 1 for s in stats)

    def test_scheduler_name_present(self, busy_cluster):
        stats = server_stats(next(iter(busy_cluster.servers.values())))
        assert stats.scheduler == "themis"

    def test_sync_rounds_counted(self, busy_cluster):
        # Two servers with the default 0.5 s λ over 2 s: a few rounds.
        total = sum(server_stats(s).sync_rounds
                    for s in busy_cluster.servers.values())
        assert total >= 2
