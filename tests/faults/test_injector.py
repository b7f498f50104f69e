"""Injector wiring and the package's core promise: determinism.

Same seed + same plan must produce bit-identical traces — the sampler's
raw completion records, the simulated end time, and every fault counter.
"""

import pytest

from repro.bb import Cluster, ClusterConfig, ServerConfig
from repro.bb.client import ClientConfig
from repro.core import JobInfo
from repro.errors import ConfigError
from repro.faults import (FaultInjector, FaultPlan, HeartbeatLoss, LinkFault,
                          ServerCrash, StorageFault)
from repro.net import Message
from repro.net.fabric import DROP
from repro.ucx.rpc import RpcRequest
from repro.units import MB


def test_filter_drops_exactly_the_named_clients_heartbeats(make_cluster):
    cluster = make_cluster()
    injector = FaultInjector(cluster, FaultPlan([
        HeartbeatLoss(start=0.0, stop=1.0, client_id="c1")]))
    injector.arm()

    def verdict(op, client_id):
        body = {"kind": op, "client_id": client_id}
        return injector._filter(Message(
            "cn-x", "bb0", RpcRequest(op, body, 64, 1, ("cn-x", "w"))))

    assert verdict("heartbeat", "c1") == DROP
    assert verdict("heartbeat", "c2") is None
    assert verdict("io", "c1") is None               # not a heartbeat
    # A reply to a heartbeat, or a payload-less message, is no request.
    reply = (1, {"kind": "heartbeat", "client_id": "c1"})
    assert injector._filter(Message("bb0", "cn-x", reply)) is None
    assert injector._filter(Message("cn-x", "bb0", None)) is None
    assert cluster.fault_stats.heartbeats_dropped == 1


class TestArming:
    def test_arm_twice_rejected(self, make_cluster):
        cluster = make_cluster()
        injector = FaultInjector(
            cluster, FaultPlan([ServerCrash("bb0", at=1.0)]))
        injector.arm()
        with pytest.raises(ConfigError):
            injector.arm()

    def test_unknown_crash_server_rejected(self, make_cluster):
        cluster = make_cluster()
        injector = FaultInjector(
            cluster, FaultPlan([ServerCrash("bb9", at=1.0)]))
        with pytest.raises(ConfigError):
            injector.arm()

    def test_unknown_storage_server_rejected(self, make_cluster):
        cluster = make_cluster()
        injector = FaultInjector(
            cluster,
            FaultPlan([StorageFault("bb9", start=0.0, stop=1.0)]))
        with pytest.raises(ConfigError):
            injector.arm()

    def test_empty_plan_installs_no_filter(self, make_cluster):
        cluster = make_cluster()
        FaultInjector(cluster, FaultPlan([])).arm()
        assert cluster.fabric._fault_filter is None


class TestSyncTimeoutRequired:
    """A λ-sync probe lost to a crash or a drop is never answered; with
    ``sync_timeout=0`` its root waits on it forever and drives no other
    round, so such a plan is refused at arm time."""

    CRASH = ServerCrash("bb1", at=0.35, restart_at=0.6)

    @staticmethod
    def _cluster(n_servers=3, sync_interval=0.1, **server_kw):
        return Cluster(ClusterConfig(
            n_servers=n_servers, policy="job-fair",
            server=ServerConfig(sync_interval=sync_interval, **server_kw)))

    @pytest.mark.parametrize("fault", [
        CRASH, LinkFault(start=0.3, stop=0.5, a="bb0", drop_prob=0.5)])
    def test_lossy_plan_without_sync_timeout_rejected(self, fault):
        injector = FaultInjector(self._cluster(), FaultPlan([fault]))
        with pytest.raises(ConfigError, match="sync_timeout"):
            injector.arm()
        assert not injector.armed

    @pytest.mark.parametrize("cluster_kw,fault", [
        ({"n_servers": 1}, ServerCrash("bb0", at=0.35, restart_at=0.6)),
        ({"sync_interval": 0.0}, CRASH),
        ({}, LinkFault(start=0.3, stop=0.5, a="bb0", delay=0.01)),
        ({}, StorageFault("bb0", start=0.3, stop=0.5)),
    ])
    def test_plans_that_cannot_lose_a_probe_need_no_timeout(self, cluster_kw,
                                                            fault):
        FaultInjector(self._cluster(**cluster_kw), FaultPlan([fault])).arm()

    def test_survivors_keep_syncing_through_the_crash(self):
        cluster = self._cluster(sync_timeout=0.1)
        FaultInjector(cluster, FaultPlan([self.CRASH])).arm()
        cluster.run(until=0.3)
        before = {name: cluster.servers[name].controller.coordinated_rounds
                  for name in ("bb0", "bb2")}
        cluster.run(until=3.0)
        driven = {name: cluster.servers[name].controller.coordinated_rounds
                  - rounds for name, rounds in before.items()}
        assert driven == {"bb0": 10, "bb2": 9}
        assert cluster.sync_stats()["sync_rounds"] == 82


def _run_scenario(seed):
    """A lively 2-server run with probabilistic drops, EIO and a crash."""
    cfg = ClusterConfig(
        n_servers=2, policy="job-fair", seed=seed,
        journal=True, storage_backend="log",
        client=ClientConfig(rpc_timeout=0.2, retry_backoff=0.02),
        server=ServerConfig(sync_timeout=0.4))
    cluster = Cluster(cfg)
    cluster.fs.makedirs("/fs/d")
    plan = FaultPlan([
        ServerCrash("bb0", at=0.8, restart_at=1.6),
        LinkFault(start=0.3, stop=2.0, drop_prob=0.25),
        StorageFault("bb0", start=0.3, stop=1.2, error_rate=0.25),
        StorageFault("bb1", start=0.3, stop=1.2, error_rate=0.25),
    ])
    FaultInjector(cluster, plan).arm()
    engine = cluster.engine
    for i in range(3):
        client = cluster.add_client(
            JobInfo(job_id=i + 1, user=f"u{i}", size=1),
            client_id=f"c{i}")

        def app(client=client, i=i):
            # Keep traffic flowing through every fault window.
            path = f"/fs/d/f{i}"
            yield from client.create(path)
            k = 0
            while engine.now < 2.5:
                yield from client.write(path, (k % 8) * MB, MB)
                yield from client.read(path, (k % 8) * MB, MB)
                k += 1

        engine.process(app())
    cluster.run(until=4.0)
    sampler = cluster.sampler
    return (tuple(sampler._times), tuple(sampler._jobs),
            tuple(sampler._bytes), tuple(sampler._ops),
            cluster.engine.now,
            tuple(sorted(cluster.fault_stats.snapshot().items())))


class TestDeterminism:
    def test_same_seed_same_plan_bit_identical(self):
        assert _run_scenario(7) == _run_scenario(7)

    def test_faults_actually_fired(self):
        trace = _run_scenario(7)
        stats = dict(trace[-1])
        assert stats["server_crashes"] == 1
        assert stats["server_recoveries"] == 1
        assert stats["messages_dropped"] > 0
        assert stats["storage_errors"] > 0
