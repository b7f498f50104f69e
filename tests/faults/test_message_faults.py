"""Per-message faults: partitions, drops, delays and storage EIO."""

import pytest

from repro.errors import RpcTimeout
from repro.faults import FaultInjector, FaultPlan, LinkFault, StorageFault
from repro.units import MB


def _start_writer(cluster, client, path, stop_at, out):
    """Background stream: write/read cycles until *stop_at* sim time."""

    def app():
        yield from client.create(path)
        k = 0
        while cluster.engine.now < stop_at:
            yield from client.write(path, (k % 4) * MB, MB)
            out["completions"] = out.get("completions", 0) + 1
            k += 1
        out["done"] = True

    cluster.engine.process(app())


class TestPartition:
    def test_full_partition_stalls_then_recovers(self, make_cluster, job):
        cluster = make_cluster(n_servers=1)
        client = cluster.add_client(job(1), client_id="c0")
        plan = FaultPlan([LinkFault(start=0.2, stop=1.0, a="cn-c0",
                                    drop_prob=1.0)])
        FaultInjector(cluster, plan).arm()
        out = {}
        _start_writer(cluster, client, "/fs/d/f", stop_at=1.5, out=out)

        cluster.run(until=0.9)
        mid_window = out.get("completions", 0)
        assert cluster.fault_stats.messages_dropped > 0
        cluster.run(until=3.0)
        # The stream survived the outage and made progress after it.
        assert out.get("done")
        assert out["completions"] > mid_window
        assert cluster.fault_stats.retries > 0

    def test_drops_counted_on_fabric_too(self, make_cluster, job):
        cluster = make_cluster(n_servers=1)
        client = cluster.add_client(job(1), client_id="c0")
        plan = FaultPlan([LinkFault(start=0.0, stop=0.5, a="cn-c0",
                                    drop_prob=1.0)])
        FaultInjector(cluster, plan).arm()
        out = {}
        _start_writer(cluster, client, "/fs/d/f", stop_at=0.8, out=out)
        cluster.run(until=2.0)
        assert (cluster.fabric.dropped_messages
                >= cluster.fault_stats.messages_dropped > 0)


class TestDelay:
    def test_delay_slows_but_never_loses(self, make_cluster, job):
        cluster = make_cluster(n_servers=1)
        client = cluster.add_client(job(1), client_id="c0")
        plan = FaultPlan([LinkFault(start=0.0, stop=5.0, a="cn-c0",
                                    delay=0.002)])
        FaultInjector(cluster, plan).arm()
        out = {}
        _start_writer(cluster, client, "/fs/d/f", stop_at=0.5, out=out)
        cluster.run(until=2.0)
        assert out.get("done")
        assert cluster.fault_stats.messages_delayed > 0
        assert cluster.fault_stats.messages_dropped == 0
        # Delayed is not lost: nothing had to be retried.
        assert cluster.fault_stats.retries == 0


class TestStorageErrors:
    def test_eio_window_is_retried_through(self, make_cluster, job):
        cluster = make_cluster(n_servers=1)
        client = cluster.add_client(job(1), client_id="c0")
        plan = FaultPlan([StorageFault("bb0", start=0.0, stop=0.3,
                                       error_rate=1.0)])
        FaultInjector(cluster, plan).arm()
        done = {}

        def app():
            yield from client.create("/fs/d/f")
            done["wrote"] = yield from client.write("/fs/d/f", 0, MB)

        cluster.engine.process(app())
        cluster.run(until=2.0)
        # Every attempt inside the window failed with EIO; the client
        # kept retrying and succeeded once the window closed.
        assert done.get("wrote") == MB
        assert cluster.fault_stats.storage_errors > 0
        assert cluster.fault_stats.error_replies > 0
        assert cluster.fault_stats.retries > 0

    def test_bounded_retries_surface_failure(self, make_cluster, job):
        cluster = make_cluster(n_servers=1, rpc_retries=2,
                               retry_backoff=0.01)
        client = cluster.add_client(job(1), client_id="c0")
        plan = FaultPlan([StorageFault("bb0", start=0.0, stop=10.0,
                                       error_rate=1.0)])
        FaultInjector(cluster, plan).arm()
        caught = {}

        def app():
            try:
                yield from client.create("/fs/d/f")
                yield from client.write("/fs/d/f", 0, MB)
            except RpcTimeout as exc:
                caught["error"] = str(exc)

        cluster.engine.process(app())
        cluster.run(until=5.0)
        assert "abandoned" in caught["error"]
        assert cluster.fault_stats.requests_failed >= 1


class TestFailover:
    def test_a_stale_timeout_leaves_the_fresh_connection_alone(
            self, make_cluster, job):
        """All of a client's streams share one connection per server.
        Stream a's write times out at 0.30 and fails over; stream b's,
        sent on the *old* connection at 0.25, times out at 0.35 — and
        must not tear down the connection a has re-made since (that
        strands a's in-flight call: more timeouts, duplicates, and half
        the writes)."""
        cluster = make_cluster(n_servers=1, rpc_timeout=0.1,
                               retry_backoff=0.01)
        cluster.config.client.retry_backoff_max = 0.01
        client = cluster.add_client(job(1), client_id="c0")
        plan = FaultPlan([LinkFault(start=0.20, stop=0.26, a="cn-c0",
                                    drop_prob=1.0)])
        FaultInjector(cluster, plan).arm()
        writes = []

        def stream(path, start):
            yield from client.create(path)
            yield cluster.engine.timeout(start - cluster.engine.now)
            k = 0
            while cluster.engine.now < 0.6:
                yield from client.write(path, (k % 4) * MB, MB)
                writes.append(path)
                k += 1

        cluster.engine.process(stream("/fs/d/a", 0.20))
        cluster.engine.process(stream("/fs/d/b", 0.25))
        cluster.run(until=2.0)
        stats = cluster.fault_stats
        assert (stats.failovers, stats.rpc_timeouts,
                stats.duplicate_requests) == (1, 2, 0)
        assert len(writes) == 1282
