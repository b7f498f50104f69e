"""The flat λ-sync round (the height-1 tree): equivalence with the
paper's lock-step all-gather (the pure reference
``core.fairness.all_gather_merge``), determinism, the push hash skip,
and the message economy one rotating root buys (2·(N−1) pairs per
epoch vs the all-gather's N·(N−1))."""

from repro.bb import Cluster, ClusterConfig, ServerConfig
from repro.core import JobInfo
from repro.core.fairness import all_gather_merge
from repro.core.jobinfo import JobStatusTable
from repro.units import GB, MB


def _run_cluster(*, seed=0, until=6.0, n_servers=3, n_jobs=4, writes=12):
    cluster = Cluster(ClusterConfig(
        n_servers=n_servers, policy="job-fair", seed=seed,
        server=ServerConfig(bandwidth=1 * GB, n_workers=2)))
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


def _trace(cluster):
    s = cluster.sampler
    return (list(zip(s._times, s._jobs, s._bytes, s._ops)),
            cluster.engine.now, cluster.total_served_bytes())


def _lockstep_reference(cluster, local_only=False):
    """The paper's all-gather, offline: every server's snapshot (or only
    the rows of the jobs it hosts itself, i.e. what it knew before any
    sync) merged into every other's by the pure ``all_gather_merge``."""
    tables = []
    for server in cluster.servers.values():
        table = JobStatusTable(server.monitor.table.heartbeat_timeout)
        local = server.monitor.active_local_jobs()
        table.merge([e for e in server.monitor.table.snapshot()
                     if not local_only or e.info.job_id in local])
        tables.append(table)
    all_gather_merge(tables)
    return tables


class TestProtocolEquivalence:
    def test_batched_converges_to_lockstep_merged_table(self):
        batched = _run_cluster()
        views = [server.monitor.table.active_jobs()
                 for server in batched.servers.values()]
        # Every server has converged on the same global view...
        ids = [sorted(j.job_id for j in view) for view in views]
        assert all(x == ids[0] for x in ids), ids
        # ...and the view is the same one the lock-step protocol reaches.
        b_view = {j.job_id: (j.user, j.size) for j in views[0]}
        for table in _lockstep_reference(batched, local_only=True):
            p_view = {j.job_id: (j.user, j.size)
                      for j in table.active_jobs()}
            assert b_view == p_view
        assert b_view  # the run actually registered jobs

    def test_batched_matches_reference_all_gather(self):
        """The converged batched table equals an offline all-gather merge
        of the same per-server snapshots."""
        cluster = _run_cluster()
        tables = _lockstep_reference(cluster)
        reference = sorted(j.job_id for j in tables[0].active_jobs())
        for server in cluster.servers.values():
            got = sorted(j.job_id for j in
                         server.monitor.table.active_jobs())
            assert got == reference

    def test_same_seed_same_trace(self):
        a = _trace(_run_cluster(seed=3))
        b = _trace(_run_cluster(seed=3))
        assert a == b

    def test_batched_round_counters(self):
        cluster = _run_cluster()
        coordinated = sum(s.controller.coordinated_rounds
                          for s in cluster.servers.values())
        assert coordinated > 0
        # Rotation: with enough epochs every server has coordinated.
        assert all(s.controller.coordinated_rounds > 0
                   for s in cluster.servers.values())


class TestHashSkip:
    def test_skips_happen_on_quiescent_tables(self):
        # No clients: the merged table never changes, so after the first
        # scatter every push carries a repeated digest.
        cluster = _sync_only_cluster(until=8.0)
        skips = sum(s.controller.push_hash_skips
                    for s in cluster.servers.values())
        assert skips > 0


def _sync_only_cluster(n_servers=4, until=5.0):
    # No clients: every fabric message is λ-sync traffic.
    cluster = Cluster(ClusterConfig(
        n_servers=n_servers, policy="job-fair",
        server=ServerConfig(bandwidth=1 * GB, n_workers=1)))
    cluster.run(until=until)
    return cluster


class TestMessageEconomy:
    def test_batched_sends_fewer_sync_messages(self):
        n = 4
        batched = _sync_only_cluster(n)
        epochs = batched.sync_stats()["coordinated_rounds"]
        assert epochs > 0
        # The paper's all-gather as a cost model: N(N-1) request/response
        # pairs per epoch, two wire messages each.
        pairwise_messages = epochs * n * (n - 1) * 2
        assert batched.fabric.messages_sent < pairwise_messages
        # 2(N-1) pairs vs N(N-1) per epoch: ~N/2 fewer wire messages
        # (at N=4, 12 vs 24 per epoch, modulo boundary epochs).
        assert batched.fabric.messages_sent <= 0.6 * pairwise_messages
