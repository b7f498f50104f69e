"""Cancellable timers vs the fault machinery: a crash plus a partition.

Timeout/retry/failover paths are where cancellation earns its keep —
and where a subtly wrong skip or compaction would shuffle the trace.
The faulted workload must finish, must actually cancel expiry timers,
and must repeat bit for bit for the same seed.
"""

from repro.faults import FaultInjector, FaultPlan, LinkFault, ServerCrash
from repro.units import MB


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
