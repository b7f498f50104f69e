"""Flat λ-sync tables under faults.

Every reply and push carries the full table and the merge takes only
strictly newer heartbeats, so the two ways state can discontinue heal
the same way — the next full table that reaches the node:

- **server crash/restart**: the restarted controller has forgotten its
  presence rows and edge lists, and the next push it receives restores
  the merged view;
- **partition heal**: a healed peer answers the next gather and receives
  the next push, and tables reconverge.

The oracle for "reconverged" is the pure reference
(``conftest.assert_all_gather_state``): every live server's table equals
``core.fairness.all_gather_merge`` of the rows each server hosts itself.
"""

from repro.faults import FaultInjector, FaultPlan, LinkFault, ServerCrash
from repro.fs.hashing import ConsistentHashRing
from repro.units import MB

from .conftest import assert_all_gather_state


def _one_write(cluster, client, path):
    def app():
        yield from client.create(path)
        yield from client.write(path, 0, MB)

    cluster.engine.process(app())


def _table_view(server):
    return sorted((e.info.job_id, e.last_heartbeat, e.active)
                  for e in server.monitor.table.snapshot())


class TestCrashRestartResync:
    def _run(self, make_cluster, job):
        cluster = make_cluster(n_servers=3, sync_interval=0.1,
                               sync_timeout=0.1)
        plan = FaultPlan([ServerCrash("bb1", at=0.8, restart_at=1.2)])
        FaultInjector(cluster, plan).arm()
        for i in range(3):
            client = cluster.add_client(job(i + 1, user=f"u{i}"),
                                        client_id=f"c{i}")
            _one_write(cluster, client, f"/fs/d/f{i}")
        cluster.run(until=3.0)
        return cluster

    def test_restart_forces_full_table_resync(self, make_cluster, job):
        cluster = self._run(make_cluster, job)
        # Every server converges on the same job-status view, including
        # the one that lost its table.
        views = [_table_view(s) for s in cluster.servers.values()]
        active = [sorted(j for j, _hb, a in v if a) for v in views]
        assert all(x == active[0] for x in active), active
        assert active[0]  # jobs actually registered

    def test_crash_restart_state_identical_to_full_pushes(self, make_cluster,
                                                          job):
        cluster = self._run(make_cluster, job)
        assert_all_gather_state(cluster)
        assert cluster.total_served_bytes() == 3 * MB


class TestPartitionHeal:
    def _run(self, make_cluster, job):
        cluster = make_cluster(n_servers=2, sync_interval=0.1,
                               sync_timeout=0.1)
        ring = ConsistentHashRing(["bb0", "bb1"])
        pinned = {}
        i = 0
        while len(pinned) < 2:
            path = f"/fs/d/pin-{i}"
            pinned.setdefault(ring.lookup(path), path)
            i += 1
        plan = FaultPlan([LinkFault(start=0.0, stop=1.0, a="bb0", b="bb1",
                                    drop_prob=1.0)])
        FaultInjector(cluster, plan).arm()
        c1 = cluster.add_client(job(1, user="alice"), client_id="c1")
        c2 = cluster.add_client(job(2, user="bob"), client_id="c2")
        _one_write(cluster, c1, pinned["bb0"])
        _one_write(cluster, c2, pinned["bb1"])
        cluster.run(until=2.5)
        return cluster

    def test_heal_reconverges_without_stale_deltas(self, make_cluster, job):
        cluster = self._run(make_cluster, job)
        bb0, bb1 = cluster.servers["bb0"], cluster.servers["bb1"]
        # Both sides saw degraded rounds during the partition...
        assert cluster.fault_stats.degraded_sync_rounds > 0
        # ...and full tables reconverged after the heal.
        assert bb0.monitor.table.is_active(2)
        assert bb1.monitor.table.is_active(1)
        assert _table_view(bb0) == _table_view(bb1)

    def test_heal_state_identical_to_full_pushes(self, make_cluster, job):
        cluster = self._run(make_cluster, job)
        assert_all_gather_state(cluster)


class TestAvailabilityScenarioEquivalence:
    """The availability experiment (crash + restart under load), judged
    by the same reference and by same-seed repeatability."""

    def _run(self):
        from repro.harness import run_experiment
        from repro.harness.experiments import outage_scenario
        return run_experiment(outage_scenario(
            n_jobs=3, n_servers=2, duration=4.0, crash_at=1.5,
            restart_at=2.5, seed=0))

    def test_availability_tables_equal_all_gather_after_restart(self):
        cluster = self._run().cluster
        assert_all_gather_state(cluster)

    def test_availability_trace_identical_for_the_same_seed(self):
        from repro.harness.experiments import outage_row

        def trace(result):
            s = result.cluster.sampler
            return (list(zip(s._times, s._jobs, s._bytes, s._ops)),
                    outage_row(result))

        assert trace(self._run()) == trace(self._run())
