"""Tree-structured λ-sync under faults.

The aggregation tree's failure domain is the edge: a crash, restart,
or partition on one parent↔child edge degrades only the subtree hanging
off it, while the rest of the epoch completes. Covered here:

- **root crash**: the epoch whose root is down simply doesn't run
  (same as the flat round losing its coordinator); rotation hands the
  next epoch to a live root and the cluster reconverges;
- **interior crash/restart**: the restarted node merges the next push
  that reaches it, and its stored gather edges are gone — a push
  arriving without them goes on to every shape-child;
- **partition mid-round**: the cut child misses the gather, the
  parent's scatter skips the edge, and a later epoch's reshaped tree
  heals it;
- the fault scenarios leave every table equal to the pure all-gather
  reference (``conftest.assert_all_gather_state``).

The flat round (fanout 0) heals the same way: every reply and push
carries the full table and the merge takes only strictly newer
heartbeats, so a restarted controller that forgot its presence rows and
edge lists, or a healed peer, is restored by the next full table that
reaches it.
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


def _assert_converged(cluster):
    views = [_table_view(s) for s in cluster.servers.values()]
    active = [sorted(j for j, _hb, a in v if a) for v in views]
    assert all(x == active[0] for x in active), active
    assert active[0]  # jobs actually registered


def _run_crash(make_cluster, job, crashed, *, n_servers=7, fanout=2,
               until=3.0):
    cluster = make_cluster(n_servers=n_servers, sync_interval=0.1,
                           sync_timeout=0.1, sync_tree_fanout=fanout)
    plan = FaultPlan([ServerCrash(crashed, at=0.75, restart_at=1.25)])
    FaultInjector(cluster, plan).arm()
    for i in range(3):
        client = cluster.add_client(job(i + 1, user=f"u{i}"),
                                    client_id=f"c{i}")
        _one_write(cluster, client, f"/fs/d/f{i}")
    cluster.run(until=until)
    return cluster


class TestRootCrash:
    # With sync_interval=0.1 and members bb0..bb6, bb1 is the epoch-8
    # root (t=0.8) — squarely inside the 0.75..1.25 crash window — and
    # plays interior/leaf in the surrounding epochs.
    def test_cluster_survives_a_crashed_root(self, make_cluster, job):
        cluster = _run_crash(make_cluster, job, "bb1")
        _assert_converged(cluster)
        assert cluster.sync_stats()["coordinated_rounds"] > 0

    def test_fanin_stays_bounded_through_the_fault(self, make_cluster, job):
        cluster = _run_crash(make_cluster, job, "bb1")
        assert cluster.sync_stats()["max_gather_fanin"] <= 2

    def test_crash_state_equals_all_gather(self, make_cluster, job):
        cluster = _run_crash(make_cluster, job, "bb1")
        assert_all_gather_state(cluster)
        assert cluster.total_served_bytes() == 3 * MB


class TestInteriorCrash:
    # bb3 is never the root inside the crash window (epochs 7..12 give
    # roots bb0, bb1, bb2, bb3 at t=1.0... epoch 10 would be bb3; pick
    # bb5 instead: roots in 0.75..1.25 are epochs 8..12 → bb1..bb5 —
    # epoch 12 lands at t=1.2 < 1.25. Use a window that dodges it.
    def test_interior_crash_degrades_only_its_subtree(self, make_cluster,
                                                      job):
        cluster = make_cluster(n_servers=7, sync_interval=0.1,
                               sync_timeout=0.1, sync_tree_fanout=2)
        # Crash bb6 across epochs 8..11 (roots bb1..bb4): bb6 is interior
        # (children exist at positions 1..2 of some rotation) or leaf,
        # never the root, during the outage.
        plan = FaultPlan([ServerCrash("bb6", at=0.75, restart_at=1.15)])
        FaultInjector(cluster, plan).arm()
        for i in range(3):
            client = cluster.add_client(job(i + 1, user=f"u{i}"),
                                        client_id=f"c{i}")
            _one_write(cluster, client, f"/fs/d/f{i}")
        cluster.run(until=3.0)
        # Some epoch degraded while the edge was dark...
        assert cluster.fault_stats.degraded_sync_rounds > 0
        # ...but the cluster as a whole reconverged.
        _assert_converged(cluster)


class TestSubtreeResync:
    def test_lost_gather_bookkeeping_full_pushes_the_subtree(
            self, make_cluster, job):
        """The designed recovery path: a node whose per-epoch gather
        bookkeeping is gone (restart between gather and push) forwards
        the merged state to every shape-child."""
        cluster = make_cluster(n_servers=4, sync_interval=0.1,
                               sync_timeout=0.1, sync_tree_fanout=3)
        cluster.run(until=0.05)  # start the engine, no epoch yet
        root = cluster.servers["bb0"]
        ctl = root.controller
        assert ctl._tree_gather == {}  # nothing stored: simulates loss
        digest = "resync-digest"
        # Epoch 0's rotation is the identity: bb0 is root, bb1..bb3 its
        # children under fanout 3.
        cluster.engine.process(ctl._forward_tree_push(
            0, digest, ctl._tree_gather.pop(0, None)))
        # Harvest before the first scheduled epoch (t=0.1) overwrites
        # the injected digest with a real round's.
        cluster.run(until=0.09)
        assert ctl.full_pushes == 3
        for name in ("bb1", "bb2", "bb3"):
            child = cluster.servers[name].controller
            assert child._last_push_hash == digest, name


class TestPartitionMidRound:
    def _run(self, make_cluster, job):
        cluster = make_cluster(n_servers=5, sync_interval=0.1,
                               sync_timeout=0.1, sync_tree_fanout=2)
        # Cut bb4 off from every peer for a window covering several
        # epochs: whichever edge reaches it, the pull times out, the
        # parent's scatter skips the edge, and the epochs degrade.
        cuts = [LinkFault(start=0.55, stop=1.05, a=f"bb{i}", b="bb4",
                          drop_prob=1.0) for i in range(4)]
        FaultInjector(cluster, FaultPlan(cuts)).arm()
        for i in range(3):
            client = cluster.add_client(job(i + 1, user=f"u{i}"),
                                        client_id=f"c{i}")
            _one_write(cluster, client, f"/fs/d/f{i}")
        cluster.run(until=3.0)
        return cluster

    def test_heal_reconverges_the_cut_subtree(self, make_cluster, job):
        cluster = self._run(make_cluster, job)
        assert cluster.fault_stats.degraded_sync_rounds > 0
        _assert_converged(cluster)

    def test_partition_state_equals_all_gather(self, make_cluster, job):
        cluster = self._run(make_cluster, job)
        assert_all_gather_state(cluster)


class TestFlatCrashRestart:
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

    def test_restarted_server_rejoins_the_active_view(self, make_cluster,
                                                      job):
        # Every server converges on the same job-status view, including
        # the one that lost its table.
        _assert_converged(self._run(make_cluster, job))

    def test_crash_restart_state_equals_all_gather(self, make_cluster, job):
        cluster = self._run(make_cluster, job)
        assert_all_gather_state(cluster)
        assert cluster.total_served_bytes() == 3 * MB


class TestFlatPartitionHeal:
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

    def test_heal_reconverges_both_tables(self, make_cluster, job):
        cluster = self._run(make_cluster, job)
        bb0, bb1 = cluster.servers["bb0"], cluster.servers["bb1"]
        # Both sides saw degraded rounds during the partition...
        assert cluster.fault_stats.degraded_sync_rounds > 0
        # ...and full tables reconverged after the heal.
        assert bb0.monitor.table.is_active(2)
        assert bb1.monitor.table.is_active(1)
        assert _table_view(bb0) == _table_view(bb1)

    def test_heal_state_equals_all_gather(self, make_cluster, job):
        cluster = self._run(make_cluster, job)
        assert_all_gather_state(cluster)
