"""Shared simulated resources: stores, semaphores, and bandwidth pipes.

These follow the event protocol of :mod:`repro.sim.process`: every blocking
operation returns an :class:`~repro.sim.process.Event` that a process
yields on.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import TYPE_CHECKING, Any, Deque, List, Tuple

from ..errors import SimulationError
from .process import Event

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Engine

__all__ = ["Store", "PriorityStore", "Resource", "BandwidthPipe"]


class Store:
    """An unbounded-or-bounded FIFO queue of arbitrary items.

    ``put(item)`` and ``get()`` both return events. With a finite
    *capacity*, puts block while the store is full.
    """

    __slots__ = ("engine", "capacity", "items", "_getters", "_putters")

    def __init__(self, engine: "Engine", capacity: float = float("inf")):
        if capacity <= 0:
            raise SimulationError("capacity must be positive")
        self.engine = engine
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self._putters: Deque[Tuple[Event, Any]] = deque()

    def __len__(self) -> int:
        return len(self.items)

    @property
    def pending_getters(self) -> int:
        return len(self._getters)

    def put(self, item: Any) -> Event:
        """Insert *item*; the returned event succeeds once the item is stored."""
        ev = Event(self.engine)
        self._putters.append((ev, item))
        self._dispatch()
        return ev

    def put_nowait(self, item: Any) -> None:
        """Insert *item* with no completion event; the store must have
        room (an unbounded store always has)."""
        if self._putters or len(self.items) >= self.capacity:
            raise SimulationError("put_nowait on a full store")
        self._insert(item)
        if self._getters:
            self._dispatch()

    def _insert(self, item: Any) -> None:
        self.items.append(item)

    def get(self) -> Event:
        """Remove the oldest item; the event's value is the item."""
        ev = Event(self.engine)
        self._getters.append(ev)
        self._dispatch()
        return ev

    def try_get(self) -> Any:
        """Non-blocking get: pop and return an item, or None if empty."""
        if self.items:
            item = self.items.popleft()
            self._dispatch()
            return item
        return None

    def _dispatch(self) -> None:
        # Admit queued puts while there is room. A cancelled putter
        # abandoned the wait: drop it (and its item) instead of storing.
        while self._putters and len(self.items) < self.capacity:
            put_ev, item = self._putters.popleft()
            if put_ev._cancelled:
                continue
            self.items.append(item)
            put_ev.succeed()
        # Satisfy queued gets while items exist; cancelled getters no
        # longer want an item, so the next live getter takes it.
        while self._getters and self.items:
            get_ev = self._getters.popleft()
            if get_ev._cancelled:
                continue
            get_ev.succeed(self.items.popleft())
            # An item left may unblock a putter.
            while self._putters and len(self.items) < self.capacity:
                put_ev, item = self._putters.popleft()
                if put_ev._cancelled:
                    continue
                self.items.append(item)
                put_ev.succeed()


class PriorityStore(Store):
    """A store whose ``get`` returns the smallest item (heap order).

    Items must be comparable; use ``(priority, seq, payload)`` tuples for
    deterministic tie-breaking.
    """

    __slots__ = ()

    def __init__(self, engine: "Engine", capacity: float = float("inf")):
        super().__init__(engine, capacity)
        self.items: List[Any] = []  # heap

    def _insert(self, item: Any) -> None:
        heapq.heappush(self.items, item)

    def _dispatch(self) -> None:
        while self._putters and len(self.items) < self.capacity:
            put_ev, item = self._putters.popleft()
            if put_ev._cancelled:
                continue
            heapq.heappush(self.items, item)
            put_ev.succeed()
        while self._getters and self.items:
            get_ev = self._getters.popleft()
            if get_ev._cancelled:
                continue
            get_ev.succeed(heapq.heappop(self.items))
            while self._putters and len(self.items) < self.capacity:
                put_ev, item = self._putters.popleft()
                if put_ev._cancelled:
                    continue
                heapq.heappush(self.items, item)
                put_ev.succeed()

    def try_get(self) -> Any:
        if self.items:
            item = heapq.heappop(self.items)
            self._dispatch()
            return item
        return None


class Resource:
    """A counting semaphore with FIFO queuing.

    Usage from a process::

        req = resource.request()
        yield req
        try:
            ...  # hold the resource
        finally:
            resource.release(req)
    """

    __slots__ = ("engine", "capacity", "_holders", "_waiters")

    def __init__(self, engine: "Engine", capacity: int = 1):
        if capacity < 1:
            raise SimulationError("capacity must be >= 1")
        self.engine = engine
        self.capacity = int(capacity)
        self._holders: set = set()
        self._waiters: Deque[Event] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._holders)

    @property
    def queued(self) -> int:
        return len(self._waiters)

    def request(self) -> Event:
        """Event that fires once a slot is held (FIFO among waiters)."""
        ev = Event(self.engine)
        if len(self._holders) < self.capacity:
            self._holders.add(ev)
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def release(self, request: Event) -> None:
        """Release the slot held by *request*, promoting a waiter."""
        if request not in self._holders:
            raise SimulationError("releasing a request that does not hold the resource")
        self._holders.discard(request)
        waiters = self._waiters
        while waiters:
            nxt = waiters.popleft()
            if nxt._cancelled:
                continue  # gave up the wait; promote the next in line
            self._holders.add(nxt)
            nxt.succeed()
            return


class BandwidthPipe:
    """A serialising link: transfers complete at ``size / rate`` in FIFO order.

    Models a NIC or device channel where transmissions queue behind each
    other; the pipe is busy until its last accepted transfer drains.
    ``transfer(nbytes)`` returns an event succeeding at the completion time;
    ``reserve(nbytes)`` only returns that time, for a caller that schedules
    its own event. A per-transfer fixed ``latency`` is added after
    serialisation.
    """

    __slots__ = ("engine", "rate", "latency", "_free_at", "_last_reserved",
                 "bytes_moved")

    def __init__(self, engine: "Engine", rate: float, latency: float = 0.0):
        if rate <= 0:
            raise SimulationError("rate must be positive")
        if latency < 0:
            raise SimulationError("latency must be non-negative")
        self.engine = engine
        self.rate = float(rate)
        self.latency = float(latency)
        self._free_at = 0.0  # time the pipe drains
        self._last_reserved = 0.0  # what reserve() last returned
        self.bytes_moved = 0

    @property
    def busy_until(self) -> float:
        return max(self._free_at, self.engine.now)

    def reserve(self, nbytes: float) -> float:
        """Queue *nbytes* behind what the pipe already holds and return
        the absolute time they have drained (plus the pipe's latency).

        The one place the drain time is worked out: :meth:`transfer`
        fires its event at it and the fabric starts a message's wire
        time from it. It is written ``now + (free_at + latency - now)``,
        not ``free_at + latency``: the two can differ in the last bit,
        and every committed trace digest was produced with the first.
        That expression is not monotone in ``now`` — a later reservation
        can round one ulp *below* an earlier one — so the result is
        clamped to what the pipe last returned: FIFO order survives
        rounding.
        """
        if nbytes < 0:
            raise SimulationError("nbytes must be non-negative")
        now = self.engine.now
        self._free_at = max(self._free_at, now) + nbytes / self.rate
        self.bytes_moved += int(nbytes)
        drained = now + (self._free_at + self.latency - now)
        if drained > self._last_reserved:
            self._last_reserved = drained
        return self._last_reserved

    def transfer(self, nbytes: float, value: Any = None) -> Event:
        """Queue a transfer of *nbytes*; the event fires when it completes."""
        return Event(self.engine).succeed_at(self.reserve(nbytes), value)

    def eta(self, nbytes: float) -> float:
        """Completion time a transfer of *nbytes* would get if queued now."""
        start = max(self._free_at, self.engine.now)
        return start + nbytes / self.rate + self.latency
