"""Tests for the I/O request record."""

import pytest

from repro.bb import (ClientConfig, Cluster, ClusterConfig, IORequest,
                      META_COST_BYTES, OpType)
from repro.bb.request import HEADER_BYTES
from repro.core import JobInfo
from repro.errors import InvalidArgument


def job(jid=1, size=4):
    return JobInfo(job_id=jid, user="u", size=size)


def test_data_cost_is_size():
    r = IORequest(op=OpType.WRITE, job=job(), path="/fs/f", size=1000)
    assert r.cost == 1000.0
    assert r.op.is_data


def test_metadata_cost_is_fixed():
    r = IORequest(op=OpType.STAT, job=job(), path="/fs/f")
    assert r.cost == META_COST_BYTES
    assert not r.op.is_data


def test_job_id_comes_from_metadata():
    r = IORequest(op=OpType.READ, job=job(jid=42), path="/fs/f", size=10)
    assert r.job_id == 42


def test_client_issues_one_id_per_request_only_when_calls_time_out():
    ids = {}
    for timeout in (0.0, 0.25):
        cluster = Cluster(ClusterConfig(
            client=ClientConfig(rpc_timeout=timeout)))
        client = cluster.add_client(job(), client_id="c0")
        ids[timeout] = [client._new(OpType.STAT, "/fs/f").req_id
                        for _ in range(3)]
    # No timer, no retry: nothing is sent twice, nothing to deduplicate.
    assert ids[0.0] == [None, None, None]
    assert ids[0.25] == ["c0#1", "c0#2", "c0#3"]


def test_retry_is_a_fresh_copy_under_the_same_id():
    """The server stamps rpc / arrival / error on what it receives, and
    a worker that straddled a crash may still hold the first copy."""
    first = IORequest(OpType.WRITE, job(), "/fs/f", 8, 3, "c0", b"abc",
                      True, (0, 1), "c0#7")
    first.rpc, first.arrival, first.error = object(), 1.5, OSError("EIO")
    again = first.retry()
    assert again is not first
    sent = ("op", "job", "path", "offset", "size", "client_id", "payload",
            "share", "groups", "req_id")
    assert all(getattr(again, f) == getattr(first, f) for f in sent)
    assert (again.rpc, again.arrival, again.error) == (None, 0.0, None)


def test_record_is_slotted_and_positional():
    """One is built per slice: as a dataclass behind a ``**kwargs``
    helper the record cost +3 % host time on ``fig07_write`` (3 / 3
    pairs, this PR's prototype); like ``net.Message`` it is a
    hand-written ``__slots__`` class built positionally."""
    r = IORequest(OpType.READ, job(), "/fs/f", 0, 10, "c0")
    assert not hasattr(r, "__dict__")
    assert (r.offset, r.size, r.client_id, r.req_id) == (0, 10, "c0", None)
    assert r.wire_bytes == HEADER_BYTES
    w = IORequest(OpType.WRITE, job(), "/fs/f", 0, 10, "c0")
    assert w.wire_bytes == HEADER_BYTES + 10


def test_negative_size_rejected():
    with pytest.raises(InvalidArgument):
        IORequest(op=OpType.READ, job=job(), path="/fs/f", size=-1)


def test_zero_byte_write_rejected():
    with pytest.raises(InvalidArgument):
        IORequest(op=OpType.WRITE, job=job(), path="/fs/f", size=0)


def test_payload_length_must_match_size():
    with pytest.raises(InvalidArgument):
        IORequest(op=OpType.WRITE, job=job(), path="/fs/f", size=5,
                  payload=b"abc")
    r = IORequest(op=OpType.WRITE, job=job(), path="/fs/f", size=3,
                  payload=b"abc")
    assert r.payload == b"abc"
