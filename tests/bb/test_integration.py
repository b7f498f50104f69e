"""End-to-end tests of the burst-buffer stack: client -> UCX -> server ->
scheduler -> worker -> file system -> reply."""

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.bb import ClientConfig, Cluster, ClusterConfig, ServerConfig
from repro.core import JobInfo
from repro.errors import ConfigError, FSError, InvalidArgument
from repro.harness import run_experiment
from repro.harness.experiments import fig07_scenario, fig14_scenario, timeline
from repro.units import GB, MB, MiB
from repro.workloads.base import JobSpec


def make_cluster(n_servers=1, policy="job-fair", stripe_count=1, **server_kw):
    cfg = ClusterConfig(
        n_servers=n_servers, policy=policy, stripe_count=stripe_count,
        server=ServerConfig(**server_kw) if server_kw else ServerConfig())
    cluster = Cluster(cfg)
    cluster.fs.makedirs("/fs/data")
    return cluster


def job(jid, user="alice", group="g0", size=1):
    return JobInfo(job_id=jid, user=user, group=group, size=size)


_NAN = float("nan")


class TestConfigValidation:
    @pytest.mark.parametrize("kw", [
        dict(sync_interval=_NAN), dict(sync_interval=-0.5),
        dict(sync_timeout=_NAN), dict(sync_processing_time=_NAN),
        dict(heartbeat_timeout=_NAN), dict(heartbeat_timeout=0.0),
        dict(heartbeat_timeout=-1.0), dict(expire_check_interval=_NAN),
        dict(bandwidth=_NAN), dict(op_latency=_NAN),
        dict(meta_latency=_NAN)])
    def test_server_config_rejects(self, kw):
        with pytest.raises(ConfigError):
            ServerConfig(**kw)

    @pytest.mark.parametrize("kw", [
        dict(rpc_timeout=_NAN), dict(heartbeat_interval=_NAN),
        dict(retry_backoff=_NAN), dict(retry_backoff_max=_NAN)])
    def test_client_config_rejects(self, kw):
        with pytest.raises(ConfigError):
            ClientConfig(**kw)


class TestDataPath:
    def test_write_then_read_roundtrip_accounting(self):
        cluster = make_cluster()
        client = cluster.add_client(job(1))
        out = {}

        def app():
            yield from client.create("/fs/data/f")
            wrote = yield from client.write("/fs/data/f", 0, 8 * MB)
            read = yield from client.read("/fs/data/f", 0, 8 * MB)
            out.update(wrote=wrote, read=read)

        cluster.engine.process(app())
        cluster.run(until=5.0)
        assert out == {"wrote": 8 * MB, "read": 8 * MB}
        assert cluster.fs.stat("/fs/data/f").size == 8 * MB
        assert cluster.sampler.total_bytes(1) == 16 * MB

    def test_payload_write_materialises_real_bytes(self):
        cluster = make_cluster(n_servers=2, stripe_count=2)
        client = cluster.add_client(job(1))
        data = bytes(range(256)) * 512  # 128 KiB

        def app():
            yield from client.create("/fs/data/real")
            yield from client.write("/fs/data/real", 0, len(data), payload=data)

        cluster.engine.process(app())
        cluster.run(until=5.0)
        assert cluster.fs.read("/fs/data/real", 0, len(data)) == data

    def test_read_past_eof_is_short(self):
        cluster = make_cluster()
        client = cluster.add_client(job(1))
        out = {}

        def app():
            yield from client.create("/fs/data/short")
            yield from client.write("/fs/data/short", 0, 1 * MB)
            out["read"] = yield from client.read("/fs/data/short", 0, 10 * MB)

        cluster.engine.process(app())
        cluster.run(until=5.0)
        assert out["read"] == 1 * MB

    def test_striped_write_lands_on_all_servers(self):
        cluster = make_cluster(n_servers=4, stripe_count=4)
        client = cluster.add_client(job(1))

        def app():
            yield from client.create("/fs/data/wide")
            yield from client.write("/fs/data/wide", 0, 64 * MiB)

        cluster.engine.process(app())
        cluster.run(until=5.0)
        touched = [name for name, server in cluster.servers.items()
                   if server.served_bytes > 0]
        assert len(touched) == 4

    def test_metadata_ops(self):
        cluster = make_cluster()
        client = cluster.add_client(job(1))
        out = {}

        cluster.fs.mkdir("/fs/data/dir")

        def app():
            yield from client.create("/fs/data/dir/x")
            resp = yield from client.stat("/fs/data/dir/x")
            out["stat_ok"] = resp["ok"]
            yield from client.unlink("/fs/data/dir/x")

        cluster.engine.process(app())
        cluster.run(until=5.0)
        assert out["stat_ok"]
        assert cluster.fs.exists("/fs/data/dir")
        assert not cluster.fs.exists("/fs/data/dir/x")
        assert cluster.sampler.op_count(op="stat") == 1

    def test_no_server_errors_in_normal_flow(self):
        cluster = make_cluster()
        client = cluster.add_client(job(1))

        def app():
            yield from client.create("/fs/data/f")
            for _ in range(5):
                yield from client.write("/fs/data/f", 0, MB)

        cluster.engine.process(app())
        cluster.run(until=5.0)
        assert all(not s.errors for s in cluster.servers.values())


class TestServiceModel:
    def test_saturated_server_approaches_device_bandwidth(self):
        # 8 concurrent request streams against one server: aggregate
        # throughput should approach the configured 2 GB/s.
        cluster = make_cluster(bandwidth=2 * GB, n_workers=4)
        client = cluster.add_client(job(1))

        def stream(idx):
            path = f"/fs/data/s{idx}"
            yield from client.create(path)
            while cluster.engine.now < 2.0:
                yield from client.write(path, 0, 4 * MB)

        def boot():
            yield from client.register_all()
            for i in range(8):
                cluster.engine.process(stream(i))

        cluster.engine.process(boot())
        cluster.run(until=2.0)
        rate = cluster.sampler.total_bytes() / 2.0
        assert rate > 1.2 * GB  # most of the device

    def test_service_time_scales_with_size(self):
        cluster = make_cluster(bandwidth=1 * GB, n_workers=1)
        client = cluster.add_client(job(1))
        stamps = {}

        def app():
            yield from client.create("/fs/data/f")
            t0 = cluster.engine.now
            yield from client.write("/fs/data/f", 0, 100 * MB)
            stamps["large"] = cluster.engine.now - t0
            t0 = cluster.engine.now
            yield from client.write("/fs/data/f", 0, 10 * MB)
            stamps["small"] = cluster.engine.now - t0

        cluster.engine.process(app())
        cluster.run(until=10.0)
        assert stamps["large"] > 5 * stamps["small"]
        assert stamps["large"] == pytest.approx(0.1, rel=0.5)


class TestJobLifecycle:
    def test_register_populates_job_table(self):
        cluster = make_cluster()
        client = cluster.add_client(job(7, size=16))

        def app():
            yield from client.register_all()

        cluster.engine.process(app())
        cluster.run(until=1.0)
        server = next(iter(cluster.servers.values()))
        assert server.monitor.table.is_active(7)
        assert server.monitor.table.get(7).size == 16

    def test_goodbye_deactivates_job_and_releases_mapping(self):
        cluster = make_cluster()
        client = cluster.add_client(job(7))

        def app():
            yield from client.register_all()
            yield from client.goodbye()

        cluster.engine.process(app())
        cluster.run(until=2.0)
        server = next(iter(cluster.servers.values()))
        assert not server.monitor.table.is_active(7)
        assert server.pool.mapped_clients == []

    def test_heartbeat_keeps_job_alive(self):
        cluster = make_cluster(heartbeat_timeout=1.0)
        client = cluster.add_client(job(7))

        def app():
            yield from client.register_all()
            # Idle for a long time; heartbeats must keep the job active.
            yield cluster.engine.timeout(4.0)

        cluster.engine.process(app())
        cluster.run(until=4.0)
        server = next(iter(cluster.servers.values()))
        assert server.monitor.table.is_active(7)

    def test_silent_client_expires(self):
        cluster = make_cluster(heartbeat_timeout=1.0)
        client = cluster.add_client(job(7))

        def app():
            yield from client.register_all()
            client.closed = True  # crash: heartbeats stop, no goodbye

        cluster.engine.process(app())
        cluster.run(until=5.0)
        server = next(iter(cluster.servers.values()))
        assert not server.monitor.table.is_active(7)
        assert server.pool.mapped_clients == []


class TestSharing:
    def test_job_fair_two_equal_competitors(self):
        cluster = make_cluster(policy="job-fair", bandwidth=1 * GB,
                               n_workers=4)
        c1 = cluster.add_client(job(1, user="a"))
        c2 = cluster.add_client(job(2, user="b"))

        def busy(client, path):
            yield from client.create(path)
            while cluster.engine.now < 3.0:
                yield from client.write(path, 0, 2 * MB)

        for i in range(3):
            cluster.engine.process(busy(c1, f"/fs/data/a{i}"))
            cluster.engine.process(busy(c2, f"/fs/data/b{i}"))
        cluster.run(until=3.0)
        b1 = cluster.sampler.total_bytes(1)
        b2 = cluster.sampler.total_bytes(2)
        assert b1 / b2 == pytest.approx(1.0, abs=0.25)

    def test_size_fair_four_to_one(self):
        # Shares only bind while both jobs are backlogged, so run many
        # more streams than workers (the paper's benchmarks run 56-224
        # processes per job against one server).
        cluster = make_cluster(policy="size-fair", bandwidth=1 * GB,
                               n_workers=2)
        c1 = cluster.add_client(job(1, size=4))
        c2 = cluster.add_client(job(2, size=1))

        def busy(client, path):
            yield from client.create(path)
            while cluster.engine.now < 4.0:
                yield from client.write(path, 0, 2 * MB)

        for i in range(8):
            cluster.engine.process(busy(c1, f"/fs/data/a{i}"))
            cluster.engine.process(busy(c2, f"/fs/data/b{i}"))
        # Skip the first second (startup), compare steady state.
        cluster.run(until=4.0)
        r1 = cluster.sampler.window_throughput(1.0, 4.0, 1)
        r2 = cluster.sampler.window_throughput(1.0, 4.0, 2)
        assert r1 / r2 == pytest.approx(4.0, rel=0.3)

    def test_fifo_burst_blocks_competitor(self):
        cluster = make_cluster(policy="fifo", bandwidth=100 * MB, n_workers=1)
        c1 = cluster.add_client(job(1))
        c2 = cluster.add_client(job(2))
        out = {}

        def burster():
            yield from c1.create("/fs/data/big")
            # Queue a 2-second burst all at once.
            yield from c1.write("/fs/data/big", 0, 200 * MB)

        def victim():
            yield from c2.create("/fs/data/small")
            yield cluster.engine.timeout(0.1)  # arrive after the burst
            t0 = cluster.engine.now
            yield from c2.write("/fs/data/small", 0, 1 * MB)
            out["latency"] = cluster.engine.now - t0

        cluster.engine.process(burster())
        cluster.engine.process(victim())
        cluster.run(until=10.0)
        # The 1 MB write had to wait for most of the 2 s burst.
        assert out["latency"] > 1.0


class TestLambdaSync:
    def test_tables_merge_within_lambda(self):
        cluster = make_cluster(n_servers=2, policy="size-fair",
                               sync_interval=0.2)
        # Job 1's file lives only on one server; job 2's on the other:
        # force disjoint placement with stripe_count=1 and distinct paths.
        c1 = cluster.add_client(job(1, user="a", size=16))
        c2 = cluster.add_client(job(2, user="b", size=8))

        def app(client, path):
            yield from client.create(path)
            while cluster.engine.now < 1.0:
                yield from client.write(path, 0, MB)

        cluster.engine.process(app(c1, "/fs/data/j1"))
        cluster.engine.process(app(c2, "/fs/data/j2"))
        cluster.run(until=1.0)
        # After a few sync rounds every server knows both jobs.
        for server in cluster.servers.values():
            known = {j.job_id for j in server.monitor.table.active_jobs()}
            assert known == {1, 2}

    def test_sync_disabled_keeps_local_views(self):
        cluster = make_cluster(n_servers=2, policy="size-fair",
                               sync_interval=0.0)
        md = cluster.fs.metadata_server("/fs/data/j1")
        # Pick paths whose metadata and data land on different servers.
        other = [n for n in cluster.servers if n != md][0]
        path2 = None
        for i in range(32):
            cand = f"/fs/data/x{i}"
            if cluster.fs.metadata_server(cand) == other:
                path2 = cand
                break
        assert path2 is not None
        c1 = cluster.add_client(job(1))
        c2 = cluster.add_client(job(2))

        def app(client, path):
            yield from client.create(path)
            yield from client.write(path, 0, MB)

        cluster.engine.process(app(c1, "/fs/data/j1"))
        cluster.engine.process(app(c2, path2))
        cluster.run(until=2.0)
        views = [{j.job_id for j in s.monitor.table.active_jobs()}
                 for s in cluster.servers.values()]
        # Without sync, at least one server must be missing a job.
        assert any(v != {1, 2} for v in views)


def _record_cluster(rpc_timeout):
    """One server plus a client whose built requests are recorded."""
    cluster = Cluster(ClusterConfig(
        client=ClientConfig(rpc_timeout=rpc_timeout, retry_backoff=0.01)))
    cluster.fs.makedirs("/fs/data")
    client = cluster.add_client(job(1), client_id="c0")
    built = []
    new = client._new

    def recording(*args, **kwargs):
        built.append(new(*args, **kwargs))
        return built[-1]

    client._new = recording
    return cluster, client, built


class TestOneRequestRecord:
    """The client's IORequest is what the scheduler queues and the
    worker serves and answers (bb/request.py)."""

    @pytest.mark.parametrize("payload", [None, b"x" * 10])
    def test_bad_offset_raises_in_the_callers_generator(self, payload):
        cluster, client, built = _record_cluster(0.0)
        cluster.fs.create("/fs/data/f")
        with pytest.raises(InvalidArgument):
            next(client.write("/fs/data/f", -1, 10, payload))
        cluster.run(until=1.0)
        # Not inside a server receive callback: nothing was ever sent.
        assert built == []
        assert cluster.servers["bb0"].served_requests == 0

    @pytest.mark.parametrize("rpc_timeout", [0.0, 0.25])
    def test_the_worker_serves_the_object_the_client_built(self, rpc_timeout):
        cluster, client, built = _record_cluster(rpc_timeout)
        served = []
        cluster.servers["bb0"].storage_fault = (
            lambda request, now: served.append(request))

        def app():
            yield from client.create("/fs/data/f")
            yield from client.write("/fs/data/f", 0, 2 * MB)
            yield from client.read("/fs/data/f", 0, 2 * MB)

        cluster.engine.process(app())
        cluster.run(until=2.0)
        assert len(built) == 3
        assert all(a is b for a, b in zip(served, built))
        # Each hung off the RPC envelope it is the body of until it was
        # answered; holding on cost fig07_write 65.9 -> 70.5 MiB peak RSS.
        assert all(request.rpc is None for request in built)

    def test_retry_after_eio_reexecutes_a_clean_copy_once(self):
        cluster, client, built = _record_cluster(0.25)
        seen = []

        def eio_once(request, now):
            seen.append((request, request.error))
            return FSError("injected EIO") if len(seen) == 1 else None

        cluster.servers["bb0"].storage_fault = eio_once
        cluster.fs.create("/fs/data/f")
        out = {}

        def app():
            out["wrote"] = yield from client.write("/fs/data/f", 0, MB)

        cluster.engine.process(app())
        cluster.run(until=2.0)
        (first, _), (again, error_on_arrival) = seen
        assert first is built[0] and again is not first
        assert again.req_id == first.req_id == "c0#1"
        assert first.error is not None
        assert error_on_arrival is None and again.error is None
        # Applied once: the failed attempt moved nothing, was not cached
        # (no duplicate replay), and the retry's bytes are the file's.
        assert out["wrote"] == MB
        assert cluster.sampler.total_bytes(1) == MB
        assert cluster.fs.stat("/fs/data/f").size == MB
        stats = cluster.fault_stats
        assert (stats.retries, stats.error_replies,
                stats.duplicate_requests) == (1, 1, 0)


_SCRIPT_OP = st.tuples(st.sampled_from(["write", "payload", "read"]),
                       st.integers(0, 5), st.integers(1, 6))


#: A timeout far beyond every horizon below: it never fires.
_NEVER = 1e3


def _observed(cluster):
    """What a run simulated: sampler records, final clock, served and
    sent bytes, messages, λ-sync counters and fault counters."""
    s = cluster.sampler
    return (list(zip(s._times, s._jobs, s._bytes, s._ops)),
            cluster.engine.now, cluster.total_served_bytes(),
            cluster.fabric.messages_sent, cluster.fabric.bytes_sent,
            cluster.sync_stats(), cluster.fault_stats.snapshot())


def _timed_out(config, knob, timeout):
    """*config* with the client's ``rpc_timeout`` or the servers'
    ``sync_timeout`` (*knob*) set to *timeout*."""
    cluster = config.cluster
    if knob == "rpc":
        cluster = replace(cluster, client=replace(
            cluster.client, rpc_timeout=timeout))
    else:
        cluster = replace(cluster, server=replace(
            cluster.server, sync_timeout=timeout))
    return replace(config, cluster=cluster)


_TIMEOUT_CELLS = {
    # One slice per request; a heartbeat fires at 0.5 s, inside the
    # 0.6 s of streams, and every client says goodbye.
    "fig07-2-servers": ("rpc", lambda: fig07_scenario(
        "job-fair", "write", 2, duration=0.6)),
    # Every 10 MB cycle is three slices: the spawned-slice path.
    "striped-timeline": ("rpc", lambda: timeline(
        "size-fair", [JobSpec(job_id=1, user="a", nodes=4),
                      JobSpec(job_id=2, user="b", nodes=1)],
        scale=0.02, n_servers=4, stripe_count=3, seed=1)),
    "fig14": ("rpc", lambda: fig14_scenario(0.05)),
    # λ-sync's per-peer timeout over 80 rounds.
    "fig14-sync": ("sync", lambda: fig14_scenario(0.01)),
}


class TestTimeoutModesAgree:
    """A timeout changes only what happens when a message is lost: on a
    healthy cluster a run whose timeouts never fire is the run with no
    timeout, record for record."""

    @pytest.mark.parametrize("cell", sorted(_TIMEOUT_CELLS))
    def test_a_timeout_that_never_fires_changes_nothing(self, cell):
        knob, build = _TIMEOUT_CELLS[cell]
        runs = [_observed(run_experiment(_timed_out(build(), knob, t))
                          .cluster) for t in (0.0, _NEVER)]
        assert runs[0][0], "the cell served nothing"
        assert runs[0] == runs[1]

    @settings(max_examples=12)
    @given(script=st.lists(_SCRIPT_OP, min_size=1, max_size=8))
    def test_same_script_same_results(self, script):
        chunk = 16 * 1024
        outcomes = []
        for rpc_timeout in (0.0, _NEVER):
            cluster = Cluster(ClusterConfig(
                n_servers=4, stripe_size=chunk,
                stripe_count=3,
                client=ClientConfig(rpc_timeout=rpc_timeout)))
            cluster.fs.makedirs("/fs/data")
            client = cluster.add_client(job(1))
            results = []

            def app():
                for name in ("a", "b"):
                    path = f"/fs/data/{name}"
                    yield from client.create(path)
                    for op, at, length in script:
                        offset, size = at * chunk // 2, length * chunk // 2
                        if op == "read":
                            moved = yield from client.read(path, offset, size)
                        else:
                            data = (bytes(range(256)) * (size // 256 + 1)
                                    )[:size] if op == "payload" else None
                            moved = yield from client.write(
                                path, offset, size, data)
                        results.append((op, moved, cluster.fs.stat(path).size))
                    resp = yield from client.stat(path)
                    results.append(("stat", resp["ok"]))
                    size = cluster.fs.stat(path).size
                    results.append(cluster.fs.read(path, 0, size))
                yield from client.unlink("/fs/data/b")
                yield from client.goodbye()
                results.append("done")

            cluster.engine.process(app())
            cluster.run(until=30.0)
            outcomes.append((
                results, cluster.fs.exists("/fs/data/b"),
                {name: (s.served_requests, s.served_bytes)
                 for name, s in cluster.servers.items()},
                _observed(cluster)))
        assert outcomes[0][0][-1] == "done"
        assert outcomes[0] == outcomes[1]
