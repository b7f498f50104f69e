"""The flat λ-sync round (the height-1 tree): equivalence with the
paper's lock-step all-gather (the pure reference
``core.fairness.all_gather_merge``), determinism, the push hash skip,
the message economy one rotating root buys (2·(N−1) pairs per epoch vs
the all-gather's N·(N−1)), and the message format: every gather reply
and scatter push carries the sender's full table — its records and
presence rows passed as the objects it holds — and is charged 64 B per
entry with a one-entry floor; probes and acks are 16 B of headers
(DESIGN.md §13)."""

from types import SimpleNamespace

import pytest

from repro.bb import Cluster, ClusterConfig, ServerConfig
from repro.bb.controller import _content_hash
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


# ------------------------------------------------------- message format
ENTRY, PROBE = 64, 16


def _pair(n_jobs=5, processing=0.0):
    """Two wired servers whose λ loop does not fire before t=1000: the
    test is the only sender. bb0 hosts jobs 1..n_jobs."""
    cluster = Cluster(ClusterConfig(
        n_servers=2, policy="job-fair",
        server=ServerConfig(sync_interval=1000.0,
                            sync_processing_time=processing)))
    a, b = cluster.servers["bb0"], cluster.servers["bb1"]
    for job_id in range(1, n_jobs + 1):
        a.monitor.observe(JobInfo(job_id=job_id, user=f"u{job_id}"), "")
    return cluster, a, b


@pytest.fixture
def pair():
    return _pair()


def answer_pull(cluster, server):
    """*server*'s reply to a probe, as ``_answer_pull`` hands it to the
    RPC layer: ``(body, size)``."""
    sent = []
    rpc = SimpleNamespace(body={"kind": "pull", "epoch": 1},
                          reply=lambda body, size: sent.append((body, size)))
    cluster.engine.process(server.controller._answer_pull(rpc))
    cluster.run(until=cluster.engine.now + 0.001)
    (reply,) = sent
    return reply


def content(server):
    return {r.info.job_id: r.last_heartbeat
            for r in server.monitor.table.snapshot()}


def test_full_reply(pair):
    cluster, a, _b = pair
    body, size = answer_pull(cluster, a)
    assert set(body) == {"entries", "presence"}
    assert body["entries"] == a.monitor.table.snapshot()
    assert size == ENTRY * 5
    assert body["presence"]["bb0"] is a.controller.presence["bb0"] \
        == frozenset(range(1, 6))


def test_empty_table_is_charged_one_entry():
    cluster, a, _b = _pair(n_jobs=0)
    body, size = answer_pull(cluster, a)
    assert body["entries"] == [] and size == ENTRY


def test_round_trip(pair):
    """bb1 roots epoch 1: it pulls bb0's table, merges it, pushes the
    merged view back. Each side ends holding the other's records and
    rows by identity, and the fabric is charged probe + reply + push +
    ack."""
    cluster, a, b = pair
    cluster.engine.process(b.controller._round(1))
    cluster.run(until=0.01)
    assert content(b) == content(a)
    assert all(mine is theirs for mine, theirs in zip(
        b.monitor.table.snapshot(), a.monitor.table.snapshot()))
    assert b.controller.presence["bb0"] is a.controller.presence["bb0"]
    assert b.controller.coord_gather_payload_bytes == ENTRY * 5
    assert cluster.fabric.bytes_sent == PROBE + ENTRY * 5 + ENTRY * 5 + PROBE
    assert (b.controller.full_pushes, b.controller.sync_rounds,
            a.controller.sync_rounds) == (1, 1, 1)


def test_full_push(pair):
    cluster, a, b = pair
    entries, presence = a.controller._view()
    digest = _content_hash(entries, presence)
    acks = []
    rpc = SimpleNamespace(
        body={"kind": "push", "epoch": 1, "entries": entries,
              "presence": presence, "hash": digest},
        reply=lambda body, size: acks.append((body, size)))
    cluster.engine.process(b.controller._apply_push(rpc))
    cluster.run(until=0.001)
    assert acks == [({"ok": True}, PROBE)]
    assert b.monitor.table.snapshot() == entries
    assert b.controller.presence["bb0"] is presence["bb0"]
    assert b.controller._last_push_hash == digest


def test_push_to_a_node_restarted_since_its_reply_is_merged():
    """bb1 answers epoch 2's gather, then crashes and restarts while
    bb0's push sits in its processing window: the restarted node merges
    the push — it does not come back up on an empty table until some
    later epoch — and acks it."""
    cluster, a, b = _pair(processing=0.01)
    # Reply leaves bb1 at t≈0.010, the push lands at t≈0.010 and is
    # applied at t≈0.020: the crash and restart fall in between.
    cluster.engine.call_at(0.015, b.crash)
    cluster.engine.call_at(0.017, b.restart)
    cluster.engine.process(a.controller._round(2))   # bb0 roots epoch 2
    cluster.run(until=0.1)
    assert cluster.fault_stats.server_crashes == 1 and not b.crashed
    assert content(b) == content(a) == {j: 0.0 for j in range(1, 6)}
    assert b.controller.presence["bb0"] == frozenset(range(1, 6))
    assert a.controller.sync_rounds == 1        # the ack came back
