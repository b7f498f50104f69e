"""Discrete-event simulation engine.

A minimal, deterministic event-driven kernel in the SimPy style, written
from scratch for this reproduction. The :class:`Engine` owns a virtual
clock and a pending-event queue of scheduled
:class:`~repro.sim.process.Event` objects. Events scheduled at equal
times fire in scheduling order (a monotonically increasing sequence
number breaks ties), which makes every run bit-for-bit reproducible
given the same seeds.

The queue is a binary heap of ``(time, seq, event)`` entries (DESIGN.md
§15) plus a FIFO *now-queue* for events scheduled at the current
instant, which need no ordering work: a heap entry stamped ``now`` was
scheduled while the clock was earlier, so its ``seq`` is below that of
every now-queue entry, and the now-queue is in ``seq`` order by
construction — heap entries at ``now`` first, then the now-queue, is
exactly ``(time, seq)`` order. Cancelled events
(:meth:`~repro.sim.process.Event.cancel`) are skipped lazily on pop and
compacted away in O(n) once dead entries dominate, so the queue stays
sublinear in garbage; live ``(time, seq)`` ordering is untouched by
cancellation.

Typical usage::

    from repro.sim import Engine

    eng = Engine()

    def proc(eng):
        yield eng.timeout(1.5)
        print("t =", eng.now)

    eng.process(proc(eng))
    eng.run()
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Dict, Generator, Iterable, Optional

from ..errors import SimulationError, StopSimulation
from .process import AllOf, Event, Process, Timeout

__all__ = ["Engine"]

# Bound once at import: the schedule/step path runs for every simulated
# event, where even the module-attribute lookup of heapq.heappush shows
# up in profiles.
_heappush = heapq.heappush
_heappop = heapq.heappop

#: Compaction trigger: rebuild the queue once more than this many dead
#: entries are pending *and* they outnumber live ones (dead > max(1024,
#: len/2)). The floor keeps small runs from compacting at all; the ratio
#: bounds the amortized cost at O(1) per cancellation.
_COMPACT_MIN_DEAD = 1024


class Engine:
    """The simulation kernel: virtual clock plus event queue.

    Parameters
    ----------
    start:
        Initial value of the simulated clock (seconds).
    """

    __slots__ = ("_now", "_heap", "_nowq", "_seq", "_active_process",
                 "_stop_requested", "_dead", "_cancelled_total",
                 "_compactions")

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._heap: list = []  # entries: (time, seq, event)
        #: events scheduled at the current instant, in scheduling order;
        #: the clock only advances while this is empty.
        self._nowq: deque = deque()
        self._seq = 0  # events ever scheduled, both containers
        self._active_process: Optional[Process] = None
        self._stop_requested = False
        self._dead = 0  # cancelled entries still sitting in the queue
        self._cancelled_total = 0
        self._compactions = 0

    # ------------------------------------------------------------------ clock
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # ------------------------------------------------------------- scheduling
    def schedule(self, event: Event, delay: float = 0.0) -> None:
        """Enqueue *event* to fire ``delay`` seconds from now.

        An event may be scheduled only once; it fires by invoking its
        callbacks with the event as the sole argument. Cancelled events
        cannot be scheduled (their firing would be silently skipped,
        which no caller ever wants).
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        self.schedule_at(event, self._now + delay)

    def schedule_at(self, event: Event, when: float) -> None:
        """Enqueue *event* to fire at absolute simulated time *when*.

        The same contract as :meth:`schedule`, for callers that have
        already worked out the firing time (a message's arrival): the
        time is queued as given, not re-derived from a delay, so no
        rounding is added. Ties at *when* fire in scheduling order.
        """
        now = self._now
        # Negated so that NaN, which compares false both ways, fails too.
        if not when >= now:
            raise SimulationError(
                f"schedule_at({when!r}) is not at or after now={now!r}")
        if event._scheduled:
            raise SimulationError(f"{event!r} already scheduled")
        if event._cancelled:
            raise SimulationError(f"cannot schedule cancelled {event!r}")
        event._scheduled = True
        seq = self._seq
        self._seq = seq + 1
        if when == now:
            self._nowq.append(event)
        else:
            _heappush(self._heap, (when, seq, event))

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Return an event that fires after ``delay`` simulated seconds."""
        return Timeout(self, delay, value)

    def event(self) -> Event:
        """Return a fresh, untriggered event."""
        return Event(self)

    def process(self, generator: Generator) -> Process:
        """Spawn *generator* as a simulation process and return its handle."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires once every event in *events* has succeeded."""
        return AllOf(self, list(events))

    # ----------------------------------------------------------- cancellation
    def _note_cancel(self) -> None:
        """Record that a scheduled entry just went dead (Event.cancel)."""
        self._dead += 1
        self._cancelled_total += 1

    def _buried(self) -> None:
        """A popped entry turned out dead: take it off the census and
        compact once dead entries dominate what is left."""
        dead = self._dead - 1
        self._dead = dead
        if (dead > _COMPACT_MIN_DEAD
                and dead * 2 > len(self._heap) + len(self._nowq)):
            self._compact()

    def _compact(self) -> None:
        """Rebuild the queue without dead entries (O(n); resets census).

        Both containers are rebuilt in place: a running loop holds them
        in locals.
        """
        heap, nowq = self._heap, self._nowq
        heap[:] = [e for e in heap if not e[2]._cancelled]
        heapq.heapify(heap)
        live = [ev for ev in nowq if not ev._cancelled]
        nowq.clear()
        nowq.extend(live)
        self._dead = 0
        self._compactions += 1

    def stats(self) -> Dict[str, Any]:
        """Event-queue census: events ever scheduled, pending/dead counts,
        cancels, compactions."""
        pending = len(self._heap) + len(self._nowq)
        return {
            "now": self._now,
            "scheduled_total": self._seq,
            "pending": pending,
            "dead_pending": self._dead,
            "live_pending": pending - self._dead,
            "cancelled_total": self._cancelled_total,
            "compactions": self._compactions,
        }

    # ---------------------------------------------------------------- running
    def peek(self) -> float:
        """Time of the next live scheduled event, or ``inf`` if none remain.

        Dead (cancelled) entries at the head of the queue are discarded
        as a side effect, so repeated peeks stay O(1) amortized.
        """
        heap, nowq = self._heap, self._nowq
        while True:
            # Heap entries stamped `now` precede the now-queue.
            from_nowq = nowq and not (heap and heap[0][0] == self._now)
            if from_nowq:
                when, event = self._now, nowq[0]
            elif heap:
                when, _seq, event = heap[0]
            else:
                return float("inf")
            if not event._cancelled:
                return when
            if from_nowq:
                nowq.popleft()
            else:
                _heappop(heap)
            self._dead -= 1

    def step(self) -> None:
        """Process exactly one live event; raise SimulationError if none
        remain. Dead entries encountered on the way are discarded (and
        the queue compacted once they dominate)."""
        heap, nowq = self._heap, self._nowq
        while True:
            if nowq and not (heap and heap[0][0] == self._now):
                when, event = self._now, nowq.popleft()
            elif heap:
                when, _seq, event = _heappop(heap)
            else:
                raise SimulationError("no scheduled events")
            if not event._cancelled:
                self._now = when
                event._fire()
                return
            self._buried()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the event queue drains or the clock reaches *until*.

        If *until* is given, the clock is advanced to exactly ``until`` when
        the run ends because of the deadline (even if the queue still holds
        later events); without one, the clock stays where the last event
        put it. An unhandled failure in any process propagates out of
        this call. A run ended by :meth:`stop` / :meth:`request_stop` may
        leave events of the current instant queued for the next run.
        """
        if until is not None:
            until = float(until)
            if not until >= self._now:
                raise SimulationError(
                    f"until={until!r} is not at or after now={self._now!r}"
                )
        self._stop_requested = False
        heap, nowq = self._heap, self._nowq
        popleft = nowq.popleft
        now = self._now
        deadline = float("inf") if until is None else until
        try:
            while nowq or heap:
                if self._stop_requested:
                    return
                if nowq:
                    # Heap entries stamped `now` precede the now-queue.
                    if heap and heap[0][0] == now:
                        event = _heappop(heap)[2]
                    else:
                        event = popleft()
                else:
                    if heap[0][0] > deadline:
                        # Works on a dead head too: every live entry is
                        # at or beyond it, hence also past the deadline.
                        self._now = until
                        return
                    when, _seq, event = _heappop(heap)
                    if not event._cancelled:
                        now = self._now = when
                if event._cancelled:
                    self._buried()
                else:
                    event._fire()
        except StopSimulation:
            return
        if until is not None:
            self._now = until

    def stop(self) -> None:
        """Stop the current :meth:`run` immediately (from inside a callback)."""
        raise StopSimulation()

    def request_stop(self) -> None:
        """Stop :meth:`run` after the current event finishes processing.

        Safe to call from inside a process (unlike :meth:`stop`, which
        unwinds via an exception and would mark the caller failed).
        """
        self._stop_requested = True

    # ---------------------------------------------------------------- helpers
    def call_at(self, when: float, fn: Callable[[], Any]) -> Event:
        """Schedule a plain callback at absolute time *when*, queued as
        given (:meth:`schedule_at`), not as a delay from now."""
        ev = Event(self)
        ev.callbacks.append(lambda _e: fn())
        self.schedule_at(ev, when)
        return ev

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Engine now={self._now:.6f} "
                f"pending={len(self._heap) + len(self._nowq)}>")
