"""λ-sync over the k-ary aggregation tree (DESIGN.md §13).

A fanout k bounds per-node peak fan-in by k and stops the root's
inbound gather bytes scaling with N, while merging exactly the same
content per epoch as the default fanout 0 (the flat round, i.e. the
height-1 tree) — every fanout must produce identical per-epoch digest
sequences. Also covered here: the shape functions and the two-kind
dispatch.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.bb import Cluster, ClusterConfig, ServerConfig
from repro.bb.controller import subtree_height, tree_children, tree_order
from repro.core import JobInfo
from repro.core.fairness import all_gather_merge
from repro.core.jobinfo import JobStatusTable
from repro.errors import ConfigError, ReproError
from repro.units import GB, MB


def _run_cluster(*, fanout=0, seed=0, until=6.0,
                 n_servers=3, n_jobs=4, writes=12):
    cluster = Cluster(ClusterConfig(
        n_servers=n_servers, policy="job-fair", seed=seed,
        server=ServerConfig(bandwidth=1 * GB, n_workers=2,
                            sync_tree_fanout=fanout)))
    cluster.fs.makedirs("/fs/d")
    engine = cluster.engine

    def app(client, idx):
        yield from client.register_all()
        path = f"/fs/d/f{idx}"
        yield from client.create(path)
        for _ in range(writes):
            yield from client.write(path, 0, 1 * MB)

    for idx in range(n_jobs):
        client = cluster.add_client(
            JobInfo(job_id=idx + 1, user=f"u{idx % 2}", size=idx + 1))
        engine.process(app(client, idx))
    cluster.run(until=until)
    return cluster


def _sync_only_cluster(*, fanout=0, n_servers=6, until=5.0, n_jobs=0):
    # No clients: every fabric message is λ-sync traffic. Optional
    # pre-seeded job entries make the snapshots non-trivial without
    # introducing any timing interplay with client traffic.
    cluster = Cluster(ClusterConfig(
        n_servers=n_servers, policy="job-fair",
        server=ServerConfig(bandwidth=1 * GB, n_workers=1,
                            sync_tree_fanout=fanout)))
    for j in range(n_jobs):
        info = JobInfo(job_id=j + 1, user=f"u{j % 3}", size=j + 1)
        server = list(cluster.servers.values())[j % n_servers]
        server.monitor.table.observe(info, 0.0)
    cluster.run(until=until)
    return cluster


def _table_view(server):
    return sorted((e.info.job_id, e.last_heartbeat, e.active)
                  for e in server.monitor.table.snapshot())


class TestTreeShape:
    def test_root_schedule_matches_flat_coordinator(self):
        members = [f"bb{i}" for i in range(7)]
        for epoch in range(20):
            order = tree_order(members, epoch)
            assert order[0] == members[epoch % 7]
            assert sorted(order) == members

    def test_children_partition_the_members(self):
        for n in (1, 2, 5, 16, 37):
            for fanout in (2, 3, 8):
                seen = []
                for pos in range(n):
                    kids = tree_children(n, fanout, pos)
                    assert len(kids) <= fanout
                    seen.extend(kids)
                # Every non-root position is the child of exactly one
                # parent; the root (position 0) of none.
                assert sorted(seen) == list(range(1, n))

    @given(n=st.integers(2, 64), pick=st.integers(0, 4),
           epoch=st.integers(0, 10_000))
    def test_shape_properties(self, n, pick, epoch):
        fanout = (2, 3, 8, n - 1, n + 5)[pick]
        if fanout < 2:          # n == 2: the controller's max(2, N-1)
            fanout = 2
        parents = {}
        for pos in range(n):
            for kid in tree_children(n, fanout, pos):
                assert kid not in parents    # exactly one parent each
                parents[kid] = pos
        assert sorted(parents) == list(range(1, n))   # root has none
        if fanout >= n - 1:
            assert subtree_height(n, fanout, 0) == 1  # the flat round
        members = [f"bb{i:02d}" for i in range(n)]
        order = tree_order(members, epoch)
        assert order[0] == members[epoch % n]
        assert sorted(order) == members

    def test_subtree_height(self):
        assert subtree_height(1, 2, 0) == 0           # singleton
        assert subtree_height(7, 2, 0) == 2           # full binary, 7
        assert subtree_height(7, 2, 1) == 1
        assert subtree_height(7, 2, 3) == 0           # leaf
        assert subtree_height(9, 8, 0) == 1           # one level, k=8
        assert subtree_height(73, 8, 0) == 2          # 1 + 8 + 64


class TestDispatch:
    @pytest.mark.parametrize("body", [{"kind": "bogus"}, {"entries": []}])
    def test_unknown_kind_is_rejected_by_name(self, body):
        cluster = _sync_only_cluster(n_servers=2, until=0.1)
        ctl = cluster.servers["bb0"].controller
        with pytest.raises(ReproError, match=repr(body.get("kind"))):
            ctl.handle_sync(SimpleNamespace(body=body))

    def test_unknown_control_kind_is_answered_with_an_error_naming_it(self):
        # The control surface (register / heartbeat / goodbye share one
        # dispatcher) replies instead of raising: its caller is a client.
        cluster = _sync_only_cluster(n_servers=2, until=0.1)
        replies = []
        cluster.servers["bb0"]._on_control(SimpleNamespace(
            body={"kind": "goodby", "client_id": "c0", "job": 1},
            reply=replies.append))
        assert len(replies) == 1 and replies[0]["ok"] is False
        assert "'goodby'" in replies[0]["error"]

    @pytest.mark.parametrize("kind", ["register", "heartbeat"])
    def test_control_body_without_job_fails_at_the_server(self, kind):
        cluster = _sync_only_cluster(n_servers=2, until=0.1)
        replies = []
        with pytest.raises(KeyError, match="job"):
            cluster.servers["bb0"]._on_control(SimpleNamespace(
                body={"kind": kind, "client_id": "c0"},
                reply=replies.append))
        assert replies == []


class TestConfigValidation:
    def test_default_is_flat(self):
        assert ServerConfig().sync_tree_fanout == 0

    def test_fanout_one_rejected(self):
        with pytest.raises(ConfigError):
            ServerConfig(sync_tree_fanout=1)
        with pytest.raises(ConfigError):
            ServerConfig(sync_tree_fanout=-2)


class TestTreeConvergence:
    def test_tree_converges_to_flat_merged_view(self):
        flat = _run_cluster(fanout=0, n_servers=5)
        tree = _run_cluster(fanout=2, n_servers=5)
        for cluster in (flat, tree):
            ids = [sorted(j.job_id for j in s.monitor.table.active_jobs())
                   for s in cluster.servers.values()]
            assert all(x == ids[0] for x in ids), ids
        f_view = {j.job_id: (j.user, j.size)
                  for j in next(iter(flat.servers.values()))
                  .monitor.table.active_jobs()}
        t_view = {j.job_id: (j.user, j.size)
                  for j in next(iter(tree.servers.values()))
                  .monitor.table.active_jobs()}
        assert f_view == t_view
        assert t_view  # the run actually registered jobs

    def test_flat_and_tree_digest_logs_identical(self):
        """The acceptance bar: per-epoch merged-table digests agree
        between the two layouts on a deterministic workload."""
        flat = _sync_only_cluster(fanout=0, n_servers=9, n_jobs=12)
        tree = _sync_only_cluster(fanout=3, n_servers=9, n_jobs=12)
        f_log = flat.sync_digest_log()
        t_log = tree.sync_digest_log()
        assert f_log
        assert f_log == t_log
        # The flat round *is* the height-1 tree: any fanout >= N-1 also
        # sends exactly the flat round's messages.
        for fanout in (8, 14):
            wide = _sync_only_cluster(fanout=fanout, n_servers=9, n_jobs=12)
            assert wide.sync_digest_log() == f_log, fanout
            assert (wide.fabric.messages_sent
                    == flat.fabric.messages_sent), fanout

    def test_root_rotates_across_servers(self):
        cluster = _sync_only_cluster(fanout=2, n_servers=4, until=6.0)
        for server in cluster.servers.values():
            assert server.controller.coordinated_rounds > 0

    def test_tree_state_equals_all_gather(self):
        """Each server ends on exactly the table the pure all-gather of
        the seeded rows produces."""
        n = 6
        cluster = _sync_only_cluster(fanout=2, n_servers=n, n_jobs=8)
        servers = list(cluster.servers.values())
        tables = []
        for index, server in enumerate(servers):
            table = JobStatusTable(server.monitor.table.heartbeat_timeout)
            table.merge([e for e in server.monitor.table.snapshot()
                         if (e.info.job_id - 1) % n == index])
            tables.append(table)
        all_gather_merge(tables)
        reference = sorted((e.info.job_id, e.last_heartbeat, e.active)
                           for e in tables[0].snapshot())
        assert len(reference) == 8
        for server in servers:
            assert _table_view(server) == reference, server.name


class TestFanInAndRootBytes:
    def test_fanin_bounded_by_branching_factor(self):
        tree = _sync_only_cluster(fanout=3, n_servers=9, n_jobs=12)
        flat = _sync_only_cluster(fanout=0, n_servers=9, n_jobs=12)
        assert tree.sync_stats()["max_gather_fanin"] <= 3
        assert flat.sync_stats()["max_gather_fanin"] == 8

    def test_tree_cuts_root_inbound_bytes(self):
        """ISSUE acceptance: the tree cuts the per-epoch root-inbound
        gather bytes by at least 40% versus the flat round (measured
        at N=32; ``repro figure sync-ladder`` covers N=256/1024)."""
        from repro.harness.experiments import sync_cost_cell
        flat = sync_cost_cell({"n_servers": 32, "epochs": 4})
        tree = sync_cost_cell({"n_servers": 32, "fanout": 8, "epochs": 4})
        assert flat["max_fanin"] == 31
        assert tree["max_fanin"] <= 8
        assert (tree["root_in_bytes_per_epoch"]
                <= 0.6 * flat["root_in_bytes_per_epoch"])


class TestSyncStats:
    def test_key_set_is_pinned(self):
        """`ledger/worker.py` and `sync_cost_cell` index this dict by
        name; the ledger's own tests are not tier-1, so a renamed or
        dropped counter has to fail here."""
        stats = _sync_only_cluster(n_servers=3, n_jobs=3).sync_stats()
        assert set(stats) == {
            "sync_rounds", "coordinated_rounds", "degraded_rounds",
            "delta_pushes", "full_pushes", "push_hash_skips",
            "coord_gather_payload_bytes", "relay_gather_payload_bytes",
            "max_gather_fanin", "placement_requests", "placement_solves"}
        assert stats["sync_rounds"] > stats["coordinated_rounds"] > 0
        assert stats["delta_pushes"] == 0 < stats["full_pushes"]

