"""The λ-sync codec, one round trip per message kind: what the sender
encodes from its table the receiver installs as the same records, and
the bytes each message is charged are the wire formulas the protocol
has always used (64 B per entry, 12 B per omitted-entry summary, 16 B
floor; DESIGN.md §13) — the nominal ``size`` always covers the full
table, ``payload_bytes`` only what a delta ships.
"""

from types import SimpleNamespace

import pytest

from repro.bb import Cluster, ClusterConfig, ServerConfig
from repro.bb.controller import _content_hash
from repro.core import JobInfo, JobRecord

ENTRY, SUMMARY, PROBE = 64, 12, 16


@pytest.fixture
def pair():
    """Two wired servers whose λ loop never fires: the test is the only
    sender. bb0 hosts jobs 1-5."""
    cluster = Cluster(ClusterConfig(
        n_servers=2, policy="job-fair",
        server=ServerConfig(sync_interval=0.0, sync_processing_time=0.0)))
    a, b = cluster.servers["bb0"], cluster.servers["bb1"]
    for job_id in range(1, 6):
        a.monitor.observe(JobInfo(job_id=job_id, user=f"u{job_id}"), "")
    return cluster, a, b


def answer_pull(cluster, server, have):
    """*server*'s reply to a probe from bb1, as ``_answer_pull`` hands
    it to the RPC layer: ``(body, size, payload_bytes)``."""
    sent = []
    rpc = SimpleNamespace(
        body={"kind": "pull", "epoch": 1, "host": "bb1", "have": have},
        reply=lambda body, size, payload_bytes=None:
            sent.append((body, size, payload_bytes)))
    cluster.engine.process(server.controller._answer_pull(rpc))
    cluster.run(until=cluster.engine.now + 0.001)
    (reply,) = sent
    return reply


def apply_push(cluster, server, push):
    acks = []
    rpc = SimpleNamespace(body=push,
                          reply=lambda body, size: acks.append((body, size)))
    cluster.engine.process(server.controller._apply_push(rpc))
    cluster.run(until=cluster.engine.now + 0.001)
    assert acks == [({"ok": True}, PROBE)]


def content(server):
    return {r.info.job_id: r.last_heartbeat
            for r in server.monitor.table.snapshot()}


def test_full_reply(pair):
    cluster, a, b = pair
    body, size, payload = answer_pull(cluster, a, have=None)
    assert "omitted" not in body and not body.get("gather_delta")
    assert body["entries"] == a.monitor.table.snapshot()
    assert (size, payload) == (ENTRY * 5, None)      # nominal = full table
    seen, wire = b.controller._harvest_reply("bb0", body)
    assert wire == ENTRY * 5
    assert seen == content(a) == content(b)
    assert all(mine is theirs for mine, theirs in zip(
        b.monitor.table.snapshot(), a.monitor.table.snapshot()))
    assert b.controller.presence["bb0"] is a.controller.presence["bb0"] \
        == frozenset(range(1, 6))
    assert a.controller.gather_full_replies == 1


def test_delta_reply_with_omitted(pair):
    cluster, a, b = pair
    b.controller._harvest_reply("bb0", answer_pull(cluster, a, None)[0])
    cluster.run(until=1.0)
    a.monitor.observe(JobInfo(job_id=2, user="u2"), "")     # fresher stamp
    a.monitor.observe(JobInfo(job_id=6, user="u6"), "")     # new job
    body, size, payload = answer_pull(
        cluster, a, have=b.controller._have_basis["bb0"])
    assert body["gather_delta"] is True
    assert [r.info.job_id for r in body["entries"]] == [2, 6]
    assert body["omitted"] == {1: 0.0, 3: 0.0, 4: 0.0, 5: 0.0}
    assert size == ENTRY * 6
    assert payload == max(PROBE, ENTRY * 2 + SUMMARY * 4)
    seen, wire = b.controller._harvest_reply("bb0", body)
    assert wire == payload
    assert seen == content(a) == content(b)
    assert b.monitor.table.snapshot() == a.monitor.table.snapshot()
    assert a.controller.gather_delta_replies == 1


def test_delta_reply_that_would_omit_nothing_is_sent_full(pair):
    cluster, a, b = pair
    b.controller._harvest_reply("bb0", answer_pull(cluster, a, None)[0])
    cluster.run(until=1.0)
    for job_id in range(1, 6):
        a.monitor.observe(JobInfo(job_id=job_id, user=f"u{job_id}"), "")
    body, size, payload = answer_pull(
        cluster, a, have=b.controller._have_basis["bb0"])
    assert "omitted" not in body and (size, payload) == (ENTRY * 5, None)
    assert a.controller.gather_full_replies == 2


def test_full_push(pair):
    cluster, a, b = pair
    entries, presence = a.controller._view()
    digest = _content_hash(entries, presence)
    push, payload = a.controller._encode_push(
        entries, presence, digest, 1, None, None, True)
    assert payload is None and push["entries"] is entries
    assert "delta" not in push
    b.controller._needs_full_sync = True
    apply_push(cluster, b, push)
    assert b.monitor.table.snapshot() == entries
    assert b.controller.presence["bb0"] is presence["bb0"]
    assert b.controller._last_push_hash == digest
    assert (a.controller.full_pushes, b.controller.full_resyncs) == (1, 1)


def test_delta_push(pair):
    cluster, a, b = pair
    # bb1 reported jobs 1-3 as fresh as bb0 holds them, job 4 older.
    seen = {1: 0.0, 2: 0.0, 3: 5.0, 4: -1.0}
    b.monitor.table.merge([JobRecord(JobInfo(job_id=j, user=f"u{j}"), 0.0,
                                     True) for j in (1, 2, 3)])
    entries, presence = a.controller._view()
    digest = _content_hash(entries, presence)
    push, payload = a.controller._encode_push(
        entries, presence, digest, 1, seen, b.controller._sync_basis, False)
    assert push["delta"] is True
    assert [r.info.job_id for r in push["entries"]] == [4, 5]
    assert payload == ENTRY * 2
    apply_push(cluster, b, push)
    assert content(b) == content(a)
    assert a.controller.delta_pushes == 1

    # Nothing to ship still costs one entry; a restarted receiver drops
    # the delta and asks for the full table.
    _, payload = a.controller._encode_push(
        entries, presence, digest, 2, content(a), 0, False)
    assert payload == ENTRY
    b.controller.reset()
    apply_push(cluster, b, push)
    assert b.controller.basis_mismatches == 1
    assert b.controller._needs_full_sync
