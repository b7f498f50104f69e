"""The λ-sync message format: every gather reply and scatter push
carries the sender's full table — its records and presence rows passed
as the objects it holds — and is charged 64 B per entry with a one-entry
floor; probes and acks are 16 B of headers (DESIGN.md §13).
"""

from types import SimpleNamespace

import pytest

from repro.bb import Cluster, ClusterConfig, ServerConfig
from repro.bb.controller import _content_hash
from repro.core import JobInfo

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
