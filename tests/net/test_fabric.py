"""Tests for the interconnect model."""

import pytest

from repro.errors import NetworkError
from repro.net import Fabric, Message
from repro.sim import Engine


@pytest.fixture
def eng():
    return Engine()


def make_fabric(eng, **kw):
    fabric = Fabric(eng, **kw)
    fabric.add_node("a")
    fabric.add_node("b")
    return fabric


def test_send_delivers_to_inbox(eng):
    fabric = make_fabric(eng, latency=0.001, link_bandwidth=1000.0)
    got = []
    fabric.node("b").attach(lambda msg: got.append((eng.now, msg.payload)))
    fabric.send(Message(src="a", dst="b", tag="t", payload="hello", size=100))
    eng.run()
    # 100 bytes @ 1000 B/s = 0.1 s serialisation + 1 ms latency
    assert got == [(pytest.approx(0.101), "hello")]


def test_messages_wait_for_a_receiver_and_a_node_takes_one(eng):
    fabric = make_fabric(eng, latency=0.001, link_bandwidth=1000.0)
    for payload in (1, 2):
        fabric.send(Message(src="a", dst="b", tag="t", payload=payload))
    eng.run()
    node = fabric.node("b")
    assert [m.payload for m in node.queue] == [1, 2]   # nobody to hand to
    got = []
    node.attach(lambda msg: got.append(msg.payload))
    assert got == []                 # handed over by events, not by attach
    eng.run()
    assert got == [1, 2] and not node.queue
    with pytest.raises(NetworkError):
        node.attach(got.append)


def test_zero_size_message_costs_latency_only(eng):
    fabric = make_fabric(eng, latency=0.5, link_bandwidth=1000.0)
    got = []
    fabric.node("b").attach(lambda msg: got.append(eng.now))
    fabric.send(Message(src="a", dst="b", tag="t", size=0))
    eng.run()
    assert got == [pytest.approx(0.5)]


def test_sender_nic_serialises_messages(eng):
    fabric = make_fabric(eng, latency=0.0, link_bandwidth=100.0)
    arrivals = []
    fabric.node("b").attach(
        lambda msg: arrivals.append((msg.payload, eng.now)))
    fabric.send(Message(src="a", dst="b", tag="t", payload=1, size=100))
    fabric.send(Message(src="a", dst="b", tag="t", payload=2, size=100))
    eng.run()
    assert arrivals == [(1, pytest.approx(1.0)), (2, pytest.approx(2.0))]


def test_different_senders_do_not_contend(eng):
    fabric = make_fabric(eng, latency=0.0, link_bandwidth=100.0)
    fabric.add_node("c")
    arrivals = []
    fabric.node("b").attach(lambda msg: arrivals.append((msg.src, eng.now)))
    fabric.send(Message(src="a", dst="b", tag="t", size=100))
    fabric.send(Message(src="c", dst="b", tag="t", size=100))
    eng.run()
    assert [t for _, t in arrivals] == [pytest.approx(1.0), pytest.approx(1.0)]


def test_duplicate_node_rejected(eng):
    fabric = Fabric(eng)
    fabric.add_node("x")
    with pytest.raises(NetworkError):
        fabric.add_node("x")


def test_unknown_node_rejected(eng):
    fabric = Fabric(eng)
    with pytest.raises(NetworkError):
        fabric.node("ghost")
    fabric.add_node("a")
    with pytest.raises(NetworkError):
        fabric.send(Message(src="a", dst="ghost", tag="t"))


def test_invalid_parameters(eng):
    with pytest.raises(NetworkError):
        Fabric(eng, latency=-1.0)
    with pytest.raises(NetworkError):
        Fabric(eng, link_bandwidth=0.0)


def test_negative_message_size_rejected():
    with pytest.raises(ValueError):
        Message(src="a", dst="b", tag="t", size=-1)


def test_counters(eng):
    fabric = make_fabric(eng)
    fabric.send(Message(src="a", dst="b", tag="t", size=10))
    fabric.send(Message(src="b", dst="a", tag="t", size=20))
    assert fabric.messages_sent == 2
    assert fabric.bytes_sent == 30


def test_message_ids_unique():
    m1 = Message(src="a", dst="b", tag="t")
    m2 = Message(src="a", dst="b", tag="t")
    assert m1.msg_id != m2.msg_id
