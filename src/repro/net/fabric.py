"""Interconnect model: nodes with NICs joined by a low-latency fabric.

The model captures what arbitration cares about — *when* requests arrive
and how fast bytes drain — without simulating routing. Each node owns a
transmit :class:`~repro.sim.resources.BandwidthPipe` (its NIC injection
channel) and a receiver: the callable its arrivals go to. A send
serialises on the sender's NIC, crosses the fabric after a fixed
latency, and is handed to the destination's receiver — one call entry
per message, at the arrival time. The receiver (a
:class:`~repro.ucx.ucp.UCPContext`) queues it for its own progress
call (DESIGN.md §2). Receive-side serialisation is folded into the
single NIC pipe (full-duplex links are modelled with separate tx pipes
per node, which is where contention matters for our workloads).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Optional, Set, Union

from ..errors import NetworkError
from ..sim.resources import BandwidthPipe
from ..units import GB, USEC
from .message import Message

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Engine

__all__ = ["Fabric", "FaultVerdict", "DROP"]

#: Sentinel verdict a fault filter returns to drop a message outright.
DROP = "drop"

#: What a fault filter may return per message: ``None`` (deliver
#: normally), :data:`DROP`, or a float (extra delivery delay, seconds).
FaultVerdict = Optional[Union[str, float]]


class Fabric:
    """The cluster interconnect.

    Parameters
    ----------
    engine:
        Simulation engine.
    latency:
        One-way wire latency in seconds (InfiniBand-class default: 2 us).
    link_bandwidth:
        Per-node NIC injection bandwidth in bytes/second (HDR-class
        default: 25 GB/s unidirectional).
    """

    def __init__(self, engine: "Engine", latency: float = 2 * USEC,
                 link_bandwidth: float = 25 * GB):
        if latency < 0:
            raise NetworkError(f"negative latency: {latency}")
        if link_bandwidth <= 0:
            raise NetworkError(f"non-positive bandwidth: {link_bandwidth}")
        self.engine = engine
        self.latency = float(latency)
        self.link_bandwidth = float(link_bandwidth)
        # Per node: its NIC pipe and the callable its arrivals go to.
        self._tx: Dict[str, BandwidthPipe] = {}
        self._receivers: Dict[str, Callable[[Message], None]] = {}
        self.messages_sent = 0
        self.bytes_sent = 0
        # Fault-injection hooks: both checks are falsy no-ops in a
        # healthy cluster, so the clean send path pays two branch tests.
        self._fault_filter: Optional[Callable[[Message], FaultVerdict]] = None
        #: names of the nodes marked crashed (:meth:`set_node_down`).
        self.down: Set[str] = set()
        self.dropped_messages = 0
        self.delayed_messages = 0

    @property
    def payload_bytes_sent(self) -> int:
        """Read-only alias of :attr:`bytes_sent`, the name
        ``ledger/worker.py`` reads (ROADMAP item 5(b) moves it over)."""
        return self.bytes_sent

    # -------------------------------------------------------------- topology
    def add_node(self, name: str,
                 receiver: Callable[[Message], None]) -> BandwidthPipe:
        """Attach a node called *name* (names must be unique) whose
        arrivals go to *receiver*; returns the node's NIC pipe."""
        if name in self._tx:
            raise NetworkError(f"duplicate node name: {name!r}")
        tx = self._tx[name] = BandwidthPipe(self.engine,
                                            rate=self.link_bandwidth)
        self._receivers[name] = receiver
        return tx

    # --------------------------------------------------------------- faults
    def set_fault_filter(
            self, fn: Optional[Callable[[Message], FaultVerdict]]) -> None:
        """Install (or clear, with ``None``) a per-message fault filter.

        The filter is evaluated once per send, in send order, which keeps
        any randomness inside it deterministic for a fixed seed and plan.
        It returns a :data:`FaultVerdict`: ``None`` delivers normally,
        :data:`DROP` discards the message after it crosses the wire, and
        a float adds that many seconds of delivery delay.
        """
        self._fault_filter = fn

    def set_node_down(self, name: str, down: bool = True) -> None:
        """Mark *name* crashed (or back up). A down node neither
        transmits nor receives; traffic involving it is counted dropped."""
        if name not in self._tx:
            raise NetworkError(f"unknown node: {name!r}")
        if down:
            self.down.add(name)
        else:
            self.down.discard(name)

    # ------------------------------------------------------------- transport
    def send(self, message: Message) -> None:
        """Transmit *message* to its destination's receiver.

        The message occupies the sender's NIC for ``size / link_bandwidth``
        seconds, then arrives ``latency`` later: one call entry
        (:meth:`~repro.sim.engine.Engine.schedule_call`) at
        ``t1 + (latency + extra_delay)``, ``t1`` being the NIC's drain
        time (:meth:`~repro.sim.resources.BandwidthPipe.reserve`), so
        messages that arrive at the same instant are handed over in
        send order. There is nothing to wait on: the sender cannot
        observe a loss — only a missing response can. A message from a
        down node is lost at once, without NIC time, by a call at the
        current instant.
        """
        size = message.size
        tx = self._tx.get(message.src)
        if tx is None or message.dst not in self._tx:
            raise NetworkError(
                f"unknown node in {message.src!r} -> {message.dst!r}")
        self.messages_sent += 1
        self.bytes_sent += size

        engine = self.engine
        down = self.down
        if down and message.src in down:
            # A dead node transmits nothing: lost without NIC time.
            engine.schedule_call(engine.now, (self._lose, message))
            return
        extra_delay = 0.0
        on_arrival = self._arrive
        if self._fault_filter is not None:
            verdict = self._fault_filter(message)
            if verdict == DROP:
                on_arrival = self._lose
            elif verdict is not None:
                extra_delay = float(verdict)
                self.delayed_messages += 1
        engine.schedule_call(
            tx.reserve(size) + (self.latency + extra_delay),
            (on_arrival, message))

    def _arrive(self, message: Message) -> None:
        """Hand an arrived message to its node's receiver. Destination
        liveness is checked now, not at send time, so a node that crashed
        while the message was in flight still loses it."""
        down = self.down
        if down and message.dst in down:
            self.dropped_messages += 1
        else:
            self._receivers[message.dst](message)

    def _lose(self, _message: Message) -> None:
        """Arrival of a message that reaches no receiver: the fault
        filter dropped it (it crossed the wire and held the NIC), or its
        sender was down."""
        self.dropped_messages += 1
