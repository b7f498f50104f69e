"""The flat λ-sync round (the height-1 tree): equivalence with the
paper's lock-step all-gather (the pure reference
``core.fairness.all_gather_merge``), determinism, hash-skip
trace-neutrality, and the message economy one rotating root buys
(2·(N−1) pairs per epoch vs the all-gather's N·(N−1))."""

import numpy as np

from repro.bb import Cluster, ClusterConfig, ServerConfig
from repro.bb.controller import (set_sync_delta_enabled,
                                 set_sync_gather_delta_enabled,
                                 set_sync_hash_skip_enabled,
                                 sync_delta_enabled,
                                 sync_gather_delta_enabled,
                                 sync_hash_skip_enabled)
from repro.core import JobInfo
from repro.core import scheduler as schedmod
from repro.core.baselines import gift as giftmod
from repro.core.fairness import all_gather_merge
from repro.core.jobinfo import JobStatusTable
from repro.fs import filesystem as fsmod
from repro.fs import locking as lockmod
from repro.fs import striping as stripemod
from repro.core import policy as policymod
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
                     if not local_only or e["info"].job_id in local])
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
    def test_hash_skip_is_trace_neutral(self):
        assert sync_hash_skip_enabled()
        skipping = _trace(_run_cluster(seed=1))
        set_sync_hash_skip_enabled(False)
        try:
            merging = _trace(_run_cluster(seed=1))
        finally:
            set_sync_hash_skip_enabled(True)
        assert skipping == merging

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

    def test_fabric_counter_reset(self):
        cluster = _sync_only_cluster()
        assert cluster.fabric.messages_sent > 0
        cluster.fabric.reset_counters()
        assert cluster.fabric.messages_sent == 0
        assert cluster.fabric.bytes_sent == 0


class TestDeltaSync:
    """Delta-encoded scatter pushes: same trace, fewer payload bytes."""

    def test_delta_is_trace_neutral(self):
        assert sync_delta_enabled()
        delta = _trace(_run_cluster(seed=4, n_servers=4))
        set_sync_delta_enabled(False)
        try:
            full = _trace(_run_cluster(seed=4, n_servers=4))
        finally:
            set_sync_delta_enabled(True)
        assert delta == full

    def test_delta_shrinks_payload_bytes_not_wire_size(self):
        def measure(flag):
            set_sync_delta_enabled(flag)
            try:
                c = _run_cluster(seed=4, n_servers=4, writes=20)
            finally:
                set_sync_delta_enabled(True)
            pushes = sum(s.controller.delta_pushes
                         for s in c.servers.values())
            return c.fabric.bytes_sent, c.fabric.payload_bytes_sent, pushes

        size_on, payload_on, deltas_on = measure(True)
        size_off, payload_off, deltas_off = measure(False)
        assert deltas_on > 0 and deltas_off == 0
        # Nominal (timing-bearing) traffic is identical; effective
        # payload traffic shrinks by the omitted entries.
        assert size_on == size_off
        assert payload_on < payload_off
        assert payload_off == size_off  # no encoding => payload == wire

    def test_hash_skip_still_functions_with_delta(self):
        cluster = _sync_only_cluster(until=8.0)
        skips = sum(s.controller.push_hash_skips
                    for s in cluster.servers.values())
        assert skips > 0


class TestAllTogglesEquivalence:
    """The acceptance bar: one end-to-end run with every fast path
    enabled vs every fast path disabled — bit-identical event trace."""

    TOGGLES = [
        (policymod.set_share_cache_enabled, policymod.share_cache_enabled),
        (set_sync_hash_skip_enabled, sync_hash_skip_enabled),
        (stripemod.set_stripe_memo_enabled, stripemod.stripe_memo_enabled),
        (fsmod.set_path_cache_enabled, fsmod.path_cache_enabled),
        (schedmod.set_sampled_dequeue_enabled,
         schedmod.sampled_dequeue_enabled),
        (set_sync_delta_enabled, sync_delta_enabled),
        (set_sync_gather_delta_enabled, sync_gather_delta_enabled),
        (lockmod.set_range_wake_enabled, lockmod.range_wake_enabled),
        (giftmod.set_gift_quiescence_enabled,
         giftmod.gift_quiescence_enabled),
    ]

    def test_caches_on_equals_caches_off(self):
        assert all(get() for _, get in self.TOGGLES)
        cached = _trace(_run_cluster(seed=2, n_servers=2))
        for setter, _ in self.TOGGLES:
            setter(False)
        try:
            uncached = _trace(_run_cluster(seed=2, n_servers=2))
        finally:
            for setter, _ in self.TOGGLES:
                setter(True)
        assert cached == uncached

    def test_policy_shares_identical_with_cache_disabled(self):
        from repro.core import Policy
        population = [JobInfo(job_id=i, user=f"u{i % 3}", group=f"g{i % 2}",
                              size=i + 1) for i in range(12)]
        policy = Policy.parse("group-user-size-fair")
        with_cache = policy.shares(population)
        policymod.set_share_cache_enabled(False)
        try:
            without = Policy.parse("group-user-size-fair").shares(population)
        finally:
            policymod.set_share_cache_enabled(True)
        assert with_cache == without
        assert isinstance(with_cache[0], float)
        assert np.isclose(sum(with_cache.values()), 1.0)
