"""Discrete-event simulation engine.

A minimal, deterministic event-driven kernel in the SimPy style, written
from scratch for this reproduction. The :class:`Engine` owns a virtual
clock and a pending-event queue of scheduled
:class:`~repro.sim.process.Event` objects. Events scheduled at equal
times fire in scheduling order (a monotonically increasing sequence
number breaks ties), which makes every run bit-for-bit reproducible
given the same seeds.

The queue is a binary heap of ``(time, seq, event)`` entries (DESIGN.md
§15). Cancelled events (:meth:`~repro.sim.process.Event.cancel`) are
skipped lazily on pop and compacted away in O(n) once dead entries
dominate, so the queue stays sublinear in garbage; live ``(time, seq)``
ordering is untouched by cancellation.

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
from typing import Any, Callable, Dict, Generator, Iterable, Optional

from ..errors import SimulationError, StopSimulation
from .process import AllOf, AnyOf, Event, Process, Ticker, Timeout

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

    __slots__ = ("_now", "_heap", "_seq", "_active_process",
                 "_stop_requested", "_dead", "_cancelled_total",
                 "_compactions")

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._heap: list = []  # entries: (time, seq, event)
        self._seq = 0
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
        if when < self._now:
            raise SimulationError(
                f"schedule_at({when!r}) is in the past (now={self._now!r})")
        if event._scheduled:
            raise SimulationError(f"{event!r} already scheduled")
        if event._cancelled:
            raise SimulationError(f"cannot schedule cancelled {event!r}")
        event._scheduled = True
        seq = self._seq
        self._seq = seq + 1
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

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires as soon as any event in *events* triggers."""
        return AnyOf(self, list(events))

    # ----------------------------------------------------------- cancellation
    def _note_cancel(self) -> None:
        """Record that a scheduled entry just went dead (Event.cancel)."""
        self._dead += 1
        self._cancelled_total += 1

    def _compact(self) -> None:
        """Rebuild the queue without dead entries (O(n); resets census)."""
        self._heap = [e for e in self._heap if not e[2]._cancelled]
        heapq.heapify(self._heap)
        self._dead = 0
        self._compactions += 1

    def stats(self) -> Dict[str, Any]:
        """Event-queue census: events ever scheduled, pending/dead counts,
        cancels, compactions."""
        pending = len(self._heap)
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
        heap = self._heap
        while heap:
            head = heap[0]
            if head[2]._cancelled:
                _heappop(heap)
                self._dead -= 1
                continue
            return head[0]
        return float("inf")

    def step(self) -> None:
        """Process exactly one live event; raise SimulationError if none
        remain. Dead entries encountered on the way are discarded (and
        the queue compacted once they dominate)."""
        heap = self._heap
        while heap:
            when, _seq, event = _heappop(heap)
            if event._cancelled:
                dead = self._dead - 1
                self._dead = dead
                if dead > _COMPACT_MIN_DEAD and dead * 2 > len(heap):
                    self._compact()
                    heap = self._heap
                continue
            self._now = when
            event._fire()
            return
        raise SimulationError("no scheduled events")

    def run(self, until: Optional[float] = None) -> None:
        """Run until the event queue drains or the clock reaches *until*.

        If *until* is given, the clock is advanced to exactly ``until`` when
        the run ends because of the deadline (even if the queue still holds
        later events). An unhandled failure in any process propagates out of
        this call.
        """
        if until is not None:
            until = float(until)
            if until < self._now:
                raise SimulationError(
                    f"until={until!r} is in the past (now={self._now!r})"
                )
        self._stop_requested = False
        heap = self._heap
        try:
            if until is None:
                # Unbounded run: tight loop without the deadline check.
                while heap:
                    if self._stop_requested:
                        return
                    when, _seq, event = _heappop(heap)
                    if event._cancelled:
                        dead = self._dead - 1
                        self._dead = dead
                        if dead > _COMPACT_MIN_DEAD and dead * 2 > len(heap):
                            self._compact()
                            heap = self._heap
                        continue
                    self._now = when
                    event._fire()
            else:
                while heap:
                    if self._stop_requested:
                        return
                    if heap[0][0] > until:
                        # Works on a dead head too: every live entry is
                        # at or beyond it, hence also past the deadline.
                        self._now = until
                        return
                    when, _seq, event = _heappop(heap)
                    if event._cancelled:
                        dead = self._dead - 1
                        self._dead = dead
                        if dead > _COMPACT_MIN_DEAD and dead * 2 > len(heap):
                            self._compact()
                            heap = self._heap
                        continue
                    self._now = when
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
        """Schedule a plain callback at absolute time *when*."""
        if when < self._now:
            raise SimulationError(f"call_at({when}) is in the past")
        ev = Timeout(self, when - self._now)
        ev.callbacks.append(lambda _e: fn())
        return ev

    def every(self, interval: float, fn: Callable[[], Any],
              start_delay: Optional[float] = None) -> Ticker:
        """Run ``fn()`` every *interval* seconds; returns a stoppable
        :class:`~repro.sim.process.Ticker`.

        *start_delay* defaults to one full interval before the first
        tick; ``start_delay=0`` fires the first tick immediately (at the
        current time, after pending events). It must be non-negative.
        Call :meth:`~repro.sim.process.Ticker.stop` on the returned
        handle to end the loop cleanly.
        """
        if interval <= 0:
            raise SimulationError(f"interval must be positive: {interval!r}")
        if start_delay is not None and start_delay < 0:
            raise SimulationError(
                f"start_delay must be non-negative: {start_delay!r}")
        first = interval if start_delay is None else start_delay
        return Ticker(self, interval, fn, first)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Engine now={self._now:.6f} pending={len(self._heap)}>"
