"""What one λ-sync epoch costs the controllers, counted, not timed.

32 servers in a fanout-4 tree (a root, 7 interior nodes and 24 leaves,
rotated by epoch), λ = 10 ms, ten epochs; every server holds a job of
its own and three clients heartbeat to all of them, so each round has
newer stamps to merge. Each node works out its place in an epoch's tree
once: the root in :meth:`Controller._round` for both its gather and its
push, every other node when its parent's pull arrives, kept with the
children that answered until the push comes back down. (It was worked
out a second time for the push.) The merge count is the traffic the
protocol makes and must not move: at most 62 merges per epoch here —
one per answered pull, one per applied push (31 + 31) — less the pushes
whose content hash the receiver had already applied.
"""

from collections import Counter
from unittest import mock

from repro.bb import Cluster, ClusterConfig, ServerConfig
from repro.bb.client import ClientConfig
from repro.bb.controller import Controller
from repro.core import JobInfo
from repro.core.jobinfo import JobStatusTable
from repro.units import GB

N = 32
LAMBDA = 0.010
EPOCHS = 10


def _run():
    """Run the cell; ``(cluster, shape computations per (node, epoch),
    merge calls)``."""
    cluster = Cluster(ClusterConfig(
        n_servers=N, policy="size-fair", seed=12,
        server=ServerConfig(bandwidth=1 * GB, sync_interval=LAMBDA,
                            sync_tree_fanout=4, sync_processing_time=0.001),
        client=ClientConfig(heartbeat_interval=2 * LAMBDA)))
    for k, server in enumerate(cluster.servers.values()):
        server.monitor.table.observe(
            JobInfo(job_id=100 + k, user=f"idle{k}"), 0.0)
    for j in range(1, 4):
        client = cluster.add_client(JobInfo(job_id=j, user=f"u{j}", size=j))
        cluster.engine.process(client.register_all())
    shapes, merges = Counter(), [0]
    real_children, real_merge = Controller._children, JobStatusTable.merge

    def counting_children(self, epoch):
        shapes[self.server.name, epoch] += 1
        return real_children(self, epoch)

    def counting_merge(self, remote_entries):
        merges[0] += 1
        return real_merge(self, remote_entries)

    with mock.patch.object(Controller, "_children", counting_children), \
            mock.patch.object(JobStatusTable, "merge", counting_merge):
        cluster.run(until=EPOCHS * LAMBDA + 0.5 * LAMBDA)
    return cluster, shapes, merges[0]


def test_each_node_works_out_the_tree_once_per_epoch():
    cluster, shapes, _ = _run()
    rounds = sum(s.controller.coordinated_rounds
                 for s in cluster.servers.values())
    assert rounds == EPOCHS
    # Every node took part in every epoch, once each.
    assert len(shapes) == N * EPOCHS
    assert set(shapes.values()) == {1}


def test_merge_traffic_is_unchanged():
    _, _, merges = _run()
    # Measured on this tree and on the one before it: 469 merges in ten
    # epochs.
    assert merges == 469
