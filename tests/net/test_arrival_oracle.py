"""``Fabric.send`` is one event, firing when the two-hop chain did.

Every committed trace was produced by a send that was a chain of events:
the NIC transfer's completion at ``t1``, then a wire timeout created *at*
``t1`` that fired at ``t2``. :class:`TwoHopReference` keeps that chain's
float arithmetic, and only here, as the oracle the one-event send must
agree with bit for bit — plus the one correction both sides share: a
NIC's ``t1`` never goes backwards (``now + (free_at - now)`` can round a
later reservation one ulp below an earlier one).
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net import Fabric, Message
from repro.net.fabric import DROP
from repro.sim import Engine
from repro.units import KiB

LATENCY = 2e-6
BANDWIDTH = 25e9


class TwoHopReference:
    """Arrival times of the ``sent`` -> ``wire`` event chain."""

    def __init__(self, latency=LATENCY, bandwidth=BANDWIDTH):
        self.latency, self.bandwidth = latency, bandwidth
        self.free_at = {}
        self.last_t1 = {}

    def arrival(self, now, src, size, extra_delay=0.0):
        free_at = max(self.free_at.get(src, 0.0), now) + size / self.bandwidth
        self.free_at[src] = free_at
        # hop 1: engine.schedule(sent, delay=free_at + pipe_latency - now),
        # clamped so one NIC's completions stay in send order.
        t1 = max(now + (free_at + 0.0 - now), self.last_t1.get(src, 0.0))
        self.last_t1[src] = t1
        # hop 2, created when hop 1 fired: engine.timeout(latency + extra)
        return t1 + (self.latency + extra_delay)


def make_fabric(receiver=None, **kw):
    """Senders "a" and "b" (their NIC pipes in ``tx``) and a node "z"
    whose arrivals go to *receiver*, by default appended to ``inbox``."""
    eng = Engine()
    fabric = Fabric(eng, **kw)
    tx = {name: fabric.add_node(name, lambda msg: None) for name in "ab"}
    inbox = []
    fabric.add_node("z", receiver or inbox.append)
    return eng, fabric, inbox, tx


sends = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 1e-7, 3.3e-6, 1e-3]),     # gap before it
        st.sampled_from("ab"),                               # sending NIC
        st.sampled_from([0, 1, 100, 64 * KiB, 8 * 10 ** 6]),  # bytes
        st.sampled_from([None, None, 0.0, 1e-6, 2.5e-4]),     # filter delay
    ),
    min_size=1, max_size=40)


@settings(max_examples=150)
@given(sends)
# Unclamped, the last message (0 bytes, sent 1e-7 s after the 8 MB one)
# drains at 3.32e-4 against 3.3200000000000005e-4 and overtakes it.
@example(plan=[(1e-07, "a", 0, None), (3.3e-06, "a", 0, None),
               (3.3e-06, "a", 0, None), (3.3e-06, "a", 8000000, None),
               (1e-07, "a", 0, None)])
def test_send_fires_at_the_two_hop_time_and_keeps_nic_fifo(plan):
    received = []
    eng, fabric, _inbox, _tx = make_fabric(
        lambda msg: received.append((msg.payload, eng.now)),
        latency=LATENCY, link_bandwidth=BANDWIDTH)
    fabric.set_fault_filter(lambda msg: plan[msg.payload][3])
    reference = TwoHopReference()
    expected, fired = {}, {}

    def sender():
        for idx, (gap, src, size, delay) in enumerate(plan):
            if gap:
                yield eng.timeout(gap)
            expected[idx] = reference.arrival(eng.now, src, size, delay or 0.0)
            before = eng.stats()["scheduled_total"]
            ev = fabric.send(Message(src=src, dst="z", payload=idx,
                                     size=size))
            assert eng.stats()["scheduled_total"] == before + 1
            ev.callbacks.append(
                lambda ev: fired.__setitem__(ev.value.payload, eng.now))

    eng.process(sender())
    eng.run()
    assert fired == expected                      # bit-equal, not approx
    assert dict(received) == expected
    assert fabric.delayed_messages == sum(
        1 for _, _, _, delay in plan if delay is not None)
    # Per-NIC FIFO: what one NIC sent undelayed is received in the order
    # it was sent, ties included.
    for nic in "ab":
        undelayed = [idx for idx, _ in received
                     if plan[idx][1] == nic and not plan[idx][3]]
        assert undelayed == sorted(undelayed)


def test_same_instant_arrivals_are_handed_over_in_send_order():
    # a's NIC drains after b's (t1 = 2 against 1), but the latency is so
    # large that both sums round to one float: a tie that only rounding
    # makes. It goes to the message sent first; the two-hop chain gave it
    # to the NIC that drained first.
    eng, fabric, inbox, _tx = make_fabric(latency=1e17, link_bandwidth=1.0)
    fabric.send(Message(src="a", dst="z", payload="a", size=2))
    fabric.send(Message(src="b", dst="z", payload="b", size=1))
    eng.run()
    assert eng.now == 1e17
    assert [m.payload for m in inbox] == ["a", "b"]


def test_destination_crashing_in_flight_loses_the_message_once():
    eng, fabric, inbox, _tx = make_fabric(latency=1.0, link_bandwidth=1e9)
    ev = fabric.send(Message(src="a", dst="z", size=10))
    eng.call_at(0.5, lambda: fabric.set_node_down("z"))
    eng.run()
    assert ev.processed and eng.now == pytest.approx(1.0)
    assert fabric.dropped_messages == 1
    assert inbox == []


def test_down_source_reserves_no_nic_time():
    eng, fabric, inbox, tx = make_fabric()
    fabric.set_node_down("a")
    before = eng.stats()["scheduled_total"]
    ev = fabric.send(Message(src="a", dst="z", size=10 ** 9))
    assert ev.triggered and ev.value.size == 10 ** 9
    assert eng.stats()["scheduled_total"] == before + 1
    assert tx["a"].bytes_moved == 0
    assert tx["a"].reserve(0) == eng.now
    eng.run()
    assert eng.now == 0.0 and fabric.dropped_messages == 1
    assert inbox == []


def test_drop_verdict_holds_the_nic_but_reaches_no_inbox():
    eng, fabric, inbox, tx = make_fabric(latency=1.0, link_bandwidth=10.0)
    fabric.set_fault_filter(lambda msg: DROP)
    ev = fabric.send(Message(src="a", dst="z", size=10))
    assert fabric.dropped_messages == 0          # lost at arrival, not now
    eng.run()
    assert ev.processed and eng.now == pytest.approx(2.0)
    assert tx["a"].bytes_moved == 10
    assert fabric.dropped_messages == 1 and fabric.delayed_messages == 0
    assert inbox == []


def test_float_verdict_delays_and_is_counted():
    eng, fabric, inbox, _tx = make_fabric(latency=1.0, link_bandwidth=10.0)
    fabric.set_fault_filter(lambda msg: 0.25)
    fabric.send(Message(src="a", dst="z", size=10))
    eng.run()
    assert eng.now == pytest.approx(2.25)
    assert fabric.delayed_messages == 1 and fabric.dropped_messages == 0
    assert len(inbox) == 1


def test_burst_waited_on_together_ends_when_its_last_message_arrives():
    # A process that waits on a burst of sends from two NICs resumes at
    # the burst's last two-hop arrival, bit for bit: nothing sits
    # between that arrival and all_of.
    eng, fabric, _inbox, _tx = make_fabric(latency=LATENCY,
                                           link_bandwidth=BANDWIDTH)
    reference = TwoHopReference()
    burst = [("a", 256 * KiB), ("b", 256 * KiB), ("a", 100),
             ("b", 8 * 10 ** 6), ("a", 0)]
    resumed = []

    def sender():
        yield eng.timeout(3.3e-6)
        last = max(reference.arrival(eng.now, src, size)
                   for src, size in burst)
        yield eng.all_of([fabric.send(Message(src=src, dst="z", size=size))
                          for src, size in burst])
        resumed.append((eng.now, last))

    eng.process(sender())
    eng.run()
    [(now, last)] = resumed
    assert now == last
