"""Erasure tier under faults: degraded reads/writes, crash-driven
repair, compound faults mid-repair, and trace neutrality of the whole
tier when it is switched off."""

import hashlib

from repro.bb import Cluster, ClusterConfig, ServerConfig
from repro.bb.client import ClientConfig
from repro.core import JobInfo
from repro.faults import FaultInjector, FaultPlan, StorageFault
from repro.units import GB, KiB, MB


def _erasure_cluster(seed=0, n_servers=7, k=3, n=5, repair=False,
                     detect=0.1):
    cfg = ClusterConfig(
        n_servers=n_servers, policy="job-fair", seed=seed,
        stripe_size=64 * KiB, erasure=(k, n), repair=repair,
        repair_detect_interval=detect,
        client=ClientConfig(rpc_timeout=0.25, rpc_retries=-1,
                            retry_backoff=0.05),
        server=ServerConfig(bandwidth=1 * GB, sync_timeout=0.5))
    cluster = Cluster(cfg)
    cluster.fs.makedirs("/fs/d")
    return cluster


def _payload(length: int, seed: int = 0) -> bytes:
    return bytes((seed * 31 + i * 7 + (i >> 8)) % 256
                 for i in range(length))


def _write_file(cluster, path="/fs/d/f", length=512 * KiB, seed=1):
    """Payload-write one erasure file; returns (client, payload)."""
    client = cluster.add_client(JobInfo(job_id=1, user="alice", size=1))
    data = _payload(length, seed)

    def app():
        yield from client.create(path)
        yield from client.write(path, 0, len(data), payload=data)

    cluster.engine.process(app())
    cluster.run(until=1.0)
    return client, data


def _sha(b: bytes) -> str:
    return hashlib.sha256(b).hexdigest()


class TestDegradedRead:
    def test_read_reconstructs_around_down_server(self):
        cluster = _erasure_cluster()
        client, data = _write_file(cluster)
        spec = cluster.fs.lookup("/fs/d/f").stripe
        dead = spec.servers[0]
        cluster.crash_server(dead)
        out = {}

        def app():
            out["n"] = yield from client.read("/fs/d/f", 0, len(data))

        cluster.engine.process(app())
        cluster.run(until=4.0)
        assert out["n"] == len(data)
        stats = cluster.fault_stats
        assert stats.degraded_reads >= 1
        assert stats.shares_reconstructed >= 1
        assert stats.data_lost_groups == 0
        got, info = cluster.fs.read_reconstruct("/fs/d/f", 0, len(data),
                                                {dead})
        assert _sha(got) == _sha(data)
        assert info["lost_bytes"] == 0


class TestDegradedWrite:
    def test_write_skips_down_server_with_correct_parity(self):
        cluster = _erasure_cluster()
        client = cluster.add_client(JobInfo(job_id=1, user="alice",
                                            size=1))
        data = _payload(512 * KiB, 2)
        done = {}

        def create():
            yield from client.create("/fs/d/f")
            done["spec"] = cluster.fs.lookup("/fs/d/f").stripe

        cluster.engine.process(create())
        cluster.run(until=0.5)
        dead = done["spec"].servers[1]
        cluster.crash_server(dead)

        def write():
            done["n"] = yield from client.write("/fs/d/f", 0, len(data),
                                                payload=data)

        cluster.engine.process(write())
        cluster.run(until=4.0)
        assert done["n"] < len(data)  # the down server's pieces skipped
        assert cluster.fault_stats.degraded_writes >= 1
        # The skipped share is reconstructible from the overlay parity.
        got, info = cluster.fs.read_reconstruct("/fs/d/f", 0, len(data),
                                                {dead})
        assert _sha(got) == _sha(data)
        assert info["lost_bytes"] == 0


class TestRepair:
    def test_crash_repair_restripe_content_hash(self):
        cluster = _erasure_cluster(repair=True)
        _, data = _write_file(cluster)
        spec = cluster.fs.lookup("/fs/d/f").stripe
        dead = spec.servers[0]
        cluster.crash_server(dead)
        cluster.run(until=6.0)
        summary = cluster.repair.summary()
        assert summary["episodes"] == 1
        assert summary["groups_lost"] == 0
        assert summary["groups_repaired"] >= 1
        assert summary["repair_bytes"] > 0
        new_spec = cluster.fs.lookup("/fs/d/f").stripe
        assert dead not in new_spec.servers
        # Full redundancy restored: plain reads, no reconstruction.
        assert _sha(cluster.fs.read("/fs/d/f", 0, len(data))) == _sha(data)

    def test_sequential_crashes_within_tolerance_lose_nothing(self):
        """n - k = 2: two crashes, repaired one after the other, keep
        the content hash intact end to end."""
        cluster = _erasure_cluster(repair=True)
        _, data = _write_file(cluster)
        engine = cluster.engine
        spec = cluster.fs.lookup("/fs/d/f").stripe
        first, second = spec.servers[0], spec.servers[1]

        def crashes():
            cluster.crash_server(first)
            yield engine.timeout(2.0)  # first repair episode completes
            cluster.crash_server(second)

        engine.process(crashes())
        cluster.run(until=8.0)
        summary = cluster.repair.summary()
        assert summary["episodes"] == 2
        assert summary["groups_lost"] == 0
        assert cluster.fault_stats.data_lost_groups == 0
        new_spec = cluster.fs.lookup("/fs/d/f").stripe
        assert first not in new_spec.servers
        assert second not in new_spec.servers
        assert _sha(cluster.fs.read("/fs/d/f", 0, len(data))) == _sha(data)


class TestCompoundFaults:
    def test_storage_errors_during_repair_do_not_corrupt(self):
        """Injected EIO on a survivor while the episode runs: share
        requests fail and are counted, the rebuilt content stays
        correct."""
        cluster = _erasure_cluster(repair=True)
        _, data = _write_file(cluster)
        spec = cluster.fs.lookup("/fs/d/f").stripe
        dead, survivor = spec.servers[0], spec.servers[1]
        plan = FaultPlan([StorageFault(survivor, start=1.5, stop=2.5,
                                       error_rate=1.0)])
        FaultInjector(cluster, plan).arm()
        engine = cluster.engine

        def crash():
            yield engine.timeout(0.6)  # episode overlaps the EIO window
            cluster.crash_server(dead)

        engine.process(crash())
        cluster.run(until=8.0)
        summary = cluster.repair.summary()
        assert summary["episodes"] == 1
        assert summary["groups_lost"] == 0
        assert cluster.fault_stats.storage_errors > 0
        assert _sha(cluster.fs.read("/fs/d/f", 0, len(data))) == _sha(data)

    def test_second_crash_mid_repair_keeps_data_while_k_survive(self):
        """The second server dies while the first episode is mid-flight:
        both episodes finish, nothing is lost while >= k shares remain
        reachable."""
        cluster = _erasure_cluster(repair=True)
        _, data = _write_file(cluster)
        engine = cluster.engine
        spec = cluster.fs.lookup("/fs/d/f").stripe
        first, second = spec.servers[0], spec.servers[1]

        def crashes():
            cluster.crash_server(first)
            # Inside the detection interval + episode window: the second
            # crash lands while repair of the first is still active.
            yield engine.timeout(0.12)
            cluster.crash_server(second)

        engine.process(crashes())
        cluster.run(until=8.0)
        summary = cluster.repair.summary()
        assert summary["episodes"] == 2
        assert cluster.fault_stats.data_lost_groups == 0
        down = {s for s in cluster.servers
                if s in cluster.fabric.down}
        got, info = cluster.fs.read_reconstruct("/fs/d/f", 0, len(data),
                                                down)
        assert _sha(got) == _sha(data)
        assert info["lost_bytes"] == 0

    def test_crashes_beyond_tolerance_account_loss_without_crashing(self):
        """n - k + 1 simultaneous crashes: unsurvivable by design. Loss
        is counted (data_lost_groups) and zero-filled; the simulation
        keeps running to the horizon."""
        cluster = _erasure_cluster(repair=True)
        _, data = _write_file(cluster)
        spec = cluster.fs.lookup("/fs/d/f").stripe
        for name in spec.servers[:3]:
            cluster.crash_server(name)
        cluster.run(until=6.0)
        assert cluster.engine.now == 6.0  # no deadlock, no exception
        assert cluster.fault_stats.data_lost_groups > 0
        down = {s for s in cluster.servers
                if s in cluster.fabric.down}
        got, info = cluster.fs.read_reconstruct("/fs/d/f", 0, len(data),
                                                down)
        assert len(got) == len(data)
        assert info["lost_bytes"] > 0


def _trace(cluster):
    s = cluster.sampler
    return (list(zip(s._times, s._jobs, s._bytes, s._ops)),
            cluster.engine.now, cluster.total_served_bytes())


def _plain_run(seed, erasure=None):
    """A no-fault workload run with the erasure toggle on or off."""
    cfg = ClusterConfig(
        n_servers=4, policy="job-fair", seed=seed, stripe_size=64 * KiB,
        erasure=erasure, repair=erasure is not None,
        server=ServerConfig(bandwidth=1 * GB, n_workers=2))
    cluster = Cluster(cfg)
    cluster.fs.makedirs("/fs/d")
    engine = cluster.engine

    def app(client, idx):
        path = f"/fs/d/f{idx}"
        yield from client.create(path)
        for _ in range(8):
            yield from client.write(path, 0, 1 * MB)
            yield from client.read(path, 0, 1 * MB)

    for idx in range(3):
        client = cluster.add_client(
            JobInfo(job_id=idx + 1, user=f"u{idx}", size=idx + 1))
        engine.process(app(client, idx))
    cluster.run(until=4.0)
    return cluster


class TestTraceNeutrality:
    def test_erasure_off_is_deterministic_and_untouched(self):
        a = _plain_run(seed=3)
        b = _plain_run(seed=3)
        assert _trace(a) == _trace(b)
        # With the toggle off the tier leaves no trace at all: no
        # repair manager, no erasure counters, plain striping specs.
        assert a.repair is None
        stats = a.fault_stats.snapshot()
        for key in ("degraded_reads", "degraded_writes",
                    "shares_reconstructed", "repair_bytes",
                    "data_lost_groups"):
            assert stats[key] == 0, key

    def test_erasure_on_is_deterministic(self):
        a = _plain_run(seed=5, erasure=(2, 3))
        b = _plain_run(seed=5, erasure=(2, 3))
        assert _trace(a) == _trace(b)
        assert a.fault_stats.snapshot() == b.fault_stats.snapshot()
