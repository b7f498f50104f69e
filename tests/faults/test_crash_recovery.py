"""Crash and recovery: durability of acked writes, liveness, dedup, and
cancellable timers under a crash plus a partition.

Timeout/retry/failover paths are where cancellation earns its keep —
and where a subtly wrong skip or compaction would shuffle the trace.
The faulted workload must finish, must actually cancel expiry timers,
and must repeat bit for bit for the same seed.
"""

import pytest

from repro.errors import RpcTimeout
from repro.faults import FaultInjector, FaultPlan, LinkFault, ServerCrash
from repro.units import MB, MiB


class TestDurability:
    def test_acked_payload_writes_survive_crash_recovery(self, make_cluster,
                                                         job):
        # journal=True + storage_backend="log": every acknowledged write
        # must be readable after a crash + journal/log-scan recovery.
        cluster = make_cluster(n_servers=2)
        client = cluster.add_client(job(1), client_id="c0")
        payloads = {f"/fs/d/file{i}": bytes([i + 1]) * (128 * 1024)
                    for i in range(6)}
        acked = []

        def app():
            for path, data in payloads.items():
                yield from client.create(path)
                yield from client.write(path, 0, len(data), payload=data)
                acked.append(path)

        cluster.engine.process(app())
        cluster.run(until=3.0)
        assert len(acked) == len(payloads)

        for name in ("bb0", "bb1"):
            cluster.crash_server(name)
            cluster.restart_server(name)
        for path, data in payloads.items():
            assert cluster.fs.read(path, 0, len(data)) == data, path

    def test_default_store_keeps_acked_bytes_under_fifo(self, make_cluster,
                                                        job):
        """The default configuration (in-place extents, no journal)
        through one crash and restart under the FIFO baseline, whose
        single queue drains apart from the per-job ``QueueSet``: the
        crashed server drops what was queued, the clients retry it, and
        every acknowledged striped payload reads back."""
        cluster = make_cluster(n_servers=2, journal=False, backend="extent",
                               stripe_count=2, policy="fifo")
        FaultInjector(cluster, FaultPlan(
            [ServerCrash("bb0", at=0.1, restart_at=0.3)])).arm()
        payloads = {}
        for c in range(4):
            client = cluster.add_client(job(c + 1), client_id=f"c{c}")
            path = f"/fs/d/c{c}"
            payloads[path] = bytes([c + 1]) * MiB + bytes([c + 5]) * MiB

            def app(client=client, path=path):
                yield from client.create(path)
                while cluster.engine.now < 0.6:
                    yield from client.write(path, 0, 2 * MiB,
                                            payload=payloads[path])

            cluster.engine.process(app())
        cluster.run(until=3.0)
        stats = cluster.fault_stats
        assert (stats.server_crashes, stats.server_recoveries) == (1, 1)
        assert stats.requests_dropped_in_crash > 0
        assert stats.requests_failed == 0
        for path, data in payloads.items():
            assert cluster.fs.read(path, 0, len(data)) == data, path

    def test_recovery_reports_replayed_state(self, make_cluster, job):
        cluster = make_cluster(n_servers=1)
        client = cluster.add_client(job(1), client_id="c0")

        def app():
            yield from client.create("/fs/d/f")
            yield from client.write("/fs/d/f", 0, 2 * MB)

        cluster.engine.process(app())
        cluster.run(until=2.0)
        cluster.crash_server("bb0")
        cluster.restart_server("bb0")
        server = cluster.servers["bb0"]
        assert server.last_recovery is not None
        assert server.last_recovery["applied"] > 0
        assert cluster.fs.stat("/fs/d/f").size == 2 * MB


class TestLiveness:
    def test_unrecovered_crash_never_deadlocks(self, make_cluster, job):
        # The only server dies and never returns; bounded-retry clients
        # must surface failures and the simulation must keep advancing.
        cluster = make_cluster(n_servers=1, rpc_retries=3,
                               retry_backoff=0.01)
        client = cluster.add_client(job(1), client_id="c0")
        plan = FaultPlan([ServerCrash("bb0", at=0.01)])
        FaultInjector(cluster, plan).arm()
        out = {}

        def app():
            try:
                yield from client.create("/fs/d/f")
                for k in range(50):
                    yield from client.write("/fs/d/f", k * 4 * MB, 4 * MB)
                out["finished_all"] = True
            except RpcTimeout:
                out["failed"] = True

        cluster.engine.process(app())
        cluster.run(until=10.0)
        assert out.get("failed")
        assert cluster.fault_stats.requests_failed >= 1
        assert cluster.engine.now == 10.0

    def test_two_abandoned_slices_fail_the_request_not_the_run(
            self, make_cluster, job):
        # A write striped over two servers, both dead: each slice runs
        # out of retries on its own. The stream sees the first failure;
        # the second, which nothing awaits any more, must not escape
        # Engine.run.
        cluster = make_cluster(n_servers=2, stripe_count=2,
                               rpc_timeout=0.01, rpc_retries=1)
        client = cluster.add_client(job(1), client_id="c0")
        out = {}

        def crash_all():
            for name in sorted(cluster.servers):
                cluster.crash_server(name)

        def app():
            yield from client.create("/fs/d/f")
            yield from client.register_all()
            # Both die once the slices are on the wire (the inode
            # lookup that precedes them would not find the file on a
            # dead metadata server).
            cluster.engine.call_at(cluster.engine.now + 1e-6, crash_all)
            try:
                yield from client.write("/fs/d/f", 0, 2 * MB)
            except RpcTimeout:
                out["failed"] = True

        cluster.engine.process(app())
        cluster.run(until=2.0)
        assert out == {"failed": True}
        assert cluster.engine.now == 2.0
        assert cluster.fault_stats.requests_failed == 2

    def test_inflight_requests_dropped_on_crash(self, make_cluster, job):
        cluster = make_cluster(n_servers=1)
        client = cluster.add_client(job(1), client_id="c0")
        plan = FaultPlan([ServerCrash("bb0", at=0.1, restart_at=0.6)])
        FaultInjector(cluster, plan).arm()
        out = {}

        def app():
            yield from client.create("/fs/d/f")
            k = 0
            while cluster.engine.now < 1.2:
                yield from client.write("/fs/d/f", (k % 16) * MB, 4 * MB)
                k += 1
            out["done"] = True

        cluster.engine.process(app())
        cluster.run(until=3.0)
        assert out.get("done")
        stats = cluster.fault_stats
        assert stats.server_crashes == 1
        assert stats.server_recoveries == 1
        # Whatever was queued or in service at the crash was abandoned
        # without a reply, and the client recovered it by retrying.
        assert stats.requests_dropped_in_crash > 0
        assert stats.retries > 0


class TestIdempotentRetries:
    def test_slow_reply_retry_hits_cache_not_reexecution(self, make_cluster,
                                                         job):
        # Timeout shorter than the service time: the client retransmits
        # while (or after) the original executes. The req-id cache must
        # answer the retry; the write must be applied exactly once.
        cluster = make_cluster(n_servers=1, rpc_timeout=0.0003,
                               retry_backoff=0.005)
        client = cluster.add_client(job(1), client_id="c0")
        out = {}

        def app():
            yield from client.create("/fs/d/f")
            out["wrote"] = yield from client.write("/fs/d/f", 0, MiB)

        cluster.engine.process(app())
        cluster.run(until=2.0)
        assert out.get("wrote") == MiB
        assert cluster.fault_stats.duplicate_requests >= 1
        # Exactly one served write despite the retransmissions.
        assert cluster.sampler.op_count(job_id=1, op="write") == 1


def _faulted_run(make_cluster, job, seed=0):
    cluster = make_cluster(n_servers=3, seed=seed, rpc_retries=-1)
    plan = FaultPlan([
        ServerCrash("bb1", at=0.4, restart_at=1.2),
        LinkFault(start=1.6, stop=2.2, a="bb0", drop_prob=1.0),
    ])
    FaultInjector(cluster, plan).arm()
    done = []

    def app(client, idx):
        yield from client.register_all()
        path = f"/fs/d/f{idx}"
        yield from client.create(path)
        for k in range(8):
            yield from client.write(path, k * MB, 1 * MB)
        done.append(idx)

    for idx in range(3):
        client = cluster.add_client(job(idx + 1), client_id=f"c{idx}")
        cluster.engine.process(app(client, idx))
    cluster.run(until=6.0)
    return cluster, done


def _digest(cluster, done):
    s = cluster.sampler
    return (sorted(done),
            list(zip(s._times, s._jobs, s._bytes, s._ops)),
            cluster.sync_digest_log(),
            cluster.fault_stats.requests_failed,
            cluster.engine.now,
            cluster.total_served_bytes())


def test_faulted_run_repeats_for_the_same_seed(make_cluster, job):
    first = _digest(*_faulted_run(make_cluster, job))
    again = _digest(*_faulted_run(make_cluster, job))
    assert first == again


def test_faulted_run_cancels_and_completes(make_cluster, job):
    """The scenario exercises the machinery (expiry timers get
    cancelled) and the workload still finishes."""
    cluster, done = _faulted_run(make_cluster, job)
    assert sorted(done) == [0, 1, 2]
    assert cluster.engine.stats()["cancelled_total"] > 0
