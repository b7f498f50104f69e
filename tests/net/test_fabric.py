"""Tests for the interconnect model."""

import pytest

from repro.errors import NetworkError
from repro.net import Fabric, Message
from repro.sim import Engine


@pytest.fixture
def eng():
    return Engine()


def make_fabric(eng, receiver=lambda msg: None, **kw):
    """Nodes "a" (arrivals ignored) and "b" (arrivals to *receiver*)."""
    fabric = Fabric(eng, **kw)
    fabric.add_node("a", lambda msg: None)
    fabric.add_node("b", receiver)
    return fabric


def test_send_delivers_to_inbox(eng):
    got = []
    fabric = make_fabric(eng, lambda msg: got.append((eng.now, msg.payload)),
                         latency=0.001, link_bandwidth=1000.0)
    fabric.send(Message(src="a", dst="b", payload="hello", size=100))
    eng.run()
    # 100 bytes @ 1000 B/s = 0.1 s serialisation + 1 ms latency
    assert got == [(pytest.approx(0.101), "hello")]


def test_the_receiver_runs_in_the_arrival_event(eng):
    got = []
    fabric = make_fabric(eng, lambda msg: got.append(
        (msg.payload, eng.stats()["scheduled_total"])),
        latency=0.001, link_bandwidth=1000.0)
    for payload in (1, 2):
        fabric.send(Message(src="a", dst="b", payload=payload))
    eng.run()
    # Two sends, two events: the receiver is handed each message by its
    # arrival event, and schedules nothing of its own here.
    assert got == [(1, 2), (2, 2)]


def test_zero_size_message_costs_latency_only(eng):
    got = []
    fabric = make_fabric(eng, lambda msg: got.append(eng.now),
                         latency=0.5, link_bandwidth=1000.0)
    fabric.send(Message(src="a", dst="b", size=0))
    eng.run()
    assert got == [pytest.approx(0.5)]


def test_sender_nic_serialises_messages(eng):
    arrivals = []
    fabric = make_fabric(eng, lambda msg: arrivals.append(
        (msg.payload, eng.now)), latency=0.0, link_bandwidth=100.0)
    fabric.send(Message(src="a", dst="b", payload=1, size=100))
    fabric.send(Message(src="a", dst="b", payload=2, size=100))
    eng.run()
    assert arrivals == [(1, pytest.approx(1.0)), (2, pytest.approx(2.0))]


def test_different_senders_do_not_contend(eng):
    arrivals = []
    fabric = make_fabric(eng, lambda msg: arrivals.append((msg.src, eng.now)),
                         latency=0.0, link_bandwidth=100.0)
    fabric.add_node("c", lambda msg: None)
    fabric.send(Message(src="a", dst="b", size=100))
    fabric.send(Message(src="c", dst="b", size=100))
    eng.run()
    assert [t for _, t in arrivals] == [pytest.approx(1.0), pytest.approx(1.0)]


def test_duplicate_node_rejected(eng):
    fabric = Fabric(eng)
    fabric.add_node("x", lambda msg: None)
    with pytest.raises(NetworkError):
        fabric.add_node("x", lambda msg: None)


def test_unknown_node_rejected(eng):
    fabric = Fabric(eng)
    with pytest.raises(NetworkError):
        fabric.set_node_down("ghost")
    fabric.add_node("a", lambda msg: None)
    with pytest.raises(NetworkError):
        fabric.send(Message(src="a", dst="ghost"))
    with pytest.raises(NetworkError):
        fabric.send(Message(src="ghost", dst="a"))


def test_invalid_parameters(eng):
    with pytest.raises(NetworkError):
        Fabric(eng, latency=-1.0)
    with pytest.raises(NetworkError):
        Fabric(eng, link_bandwidth=0.0)


def test_negative_message_size_rejected():
    with pytest.raises(ValueError):
        Message(src="a", dst="b", size=-1)


def test_counters(eng):
    fabric = make_fabric(eng)
    fabric.send(Message(src="a", dst="b", size=10))
    fabric.send(Message(src="b", dst="a", size=20))
    assert fabric.messages_sent == 2
    assert fabric.bytes_sent == 30


def test_message_ids_unique():
    m1 = Message(src="a", dst="b")
    m2 = Message(src="a", dst="b")
    assert m1.msg_id != m2.msg_id
