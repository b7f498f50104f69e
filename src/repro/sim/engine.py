"""Discrete-event simulation engine.

A minimal, deterministic event-driven kernel in the SimPy style, written
from scratch for this reproduction. The :class:`Engine` owns a virtual
clock and a queue of scheduled entries. Entries scheduled at equal
times fire in scheduling order (a monotonically increasing sequence
number breaks ties), which makes every run bit-for-bit reproducible
given the same seeds.

The queue is a binary heap of ``(time, seq, entry)`` tuples (DESIGN.md
§15) plus a FIFO *now-queue* for entries scheduled at the current
instant, which need no ordering work: a heap entry stamped ``now`` was
scheduled while the clock was earlier, so its ``seq`` is below that of
every now-queue entry, and the now-queue is in ``seq`` order by
construction — heap entries at ``now`` first, then the now-queue, is
exactly ``(time, seq)`` order. An entry is either an
:class:`~repro.sim.process.Event`, which fires its callbacks, or a
*call*: a ``(fn, arg)`` tuple, run as ``fn(arg)`` when popped
(:meth:`Engine.schedule_call`). A call takes one ``seq`` like an event,
so both kinds share one order and one count, but it has no callbacks,
no value and nothing to wait on: a message's arrival, a UCP progress
hop, a process start, an I/O worker's every step. Only a
:class:`~repro.sim.process.Timeout` and a call carry a time; every
other event fires at the instant it is triggered (``succeed()``,
``fail()``, a process's end), and a process wakes only when the event
it waits on fires: a periodic task (a client's heartbeats) is a chain
of timer callbacks that its owner stops by cancelling the pending
timer. Cancelled events
(:meth:`~repro.sim.process.Event.cancel`) are skipped lazily on pop and
compacted away in O(n) once dead entries dominate, so the queue stays
sublinear in garbage; a call is never cancelled, and live ``(time,
seq)`` ordering is untouched by cancellation.

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

from ..errors import SimulationError
from .process import _PENDING, AllOf, Event, Process, Timeout

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


def _call(fn: Callable[[], Any]) -> None:
    """The ``fn`` of a :meth:`Engine.call_at` entry: its ``arg`` is the
    argument-free callable to run."""
    fn()


def _live(entry) -> bool:
    """Whether a queue entry is still to run: every call is, an event
    unless cancelled."""
    return entry.__class__ is tuple or not entry._cancelled


class Engine:
    """The simulation kernel: virtual clock plus event queue.

    Parameters
    ----------
    start:
        Initial value of the simulated clock (seconds).
    """

    __slots__ = ("now", "_heap", "_nowq", "_seq", "_stop_requested",
                 "_dead", "_cancelled_total", "_compactions")

    def __init__(self, start: float = 0.0):
        #: current simulated time in seconds; only the engine writes it
        #: (a plain slot, not a property: the request path reads it
        #: about ten times per served request).
        self.now = float(start)
        self._heap: list = []  # (time, seq, event or (fn, arg))
        #: entries scheduled at the current instant, in scheduling order;
        #: the clock only advances while this is empty.
        self._nowq: deque = deque()
        self._seq = 0  # entries ever scheduled, both containers
        self._stop_requested = False
        self._dead = 0  # cancelled entries still sitting in the queue
        self._cancelled_total = 0
        self._compactions = 0

    # ------------------------------------------------------------- scheduling
    def _trigger(self, event: Event) -> None:
        """Queue *event* to fire at the current instant: ``fail()`` and
        a process's end. ``succeed()`` has this written out.

        An event may be queued only once, and a cancelled one not at
        all (its firing would be silently skipped, which no caller ever
        wants).
        """
        if event._scheduled:
            raise SimulationError(f"{event!r} already scheduled")
        if event._cancelled:
            raise SimulationError(f"cannot schedule cancelled {event!r}")
        event._scheduled = True
        self._seq += 1
        self._nowq.append(event)

    def schedule_call(self, when: float, entry: tuple) -> None:
        """Queue the call *entry*, a ``(fn, arg)`` tuple, to run as
        ``fn(arg)`` at absolute simulated time *when*.

        A call takes one ``seq`` as an event does, and fires in the
        same ``(time, seq)`` order; it cannot be cancelled, and nothing
        can wait on it. *entry* is queued as given, so a caller that
        calls the same ``fn(arg)`` often may build it once.
        """
        now = self.now
        # Negated so that NaN, which compares false both ways, fails too.
        if not when >= now:
            raise SimulationError(
                f"schedule_call({when!r}) is not at or after now={now!r}")
        seq = self._seq
        self._seq = seq + 1
        if when == now:
            self._nowq.append(entry)
        else:
            _heappush(self._heap, (when, seq, entry))

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Return an event that fires after ``delay`` simulated seconds."""
        return Timeout(self, delay, value)

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
        heap[:] = [e for e in heap if _live(e[2])]
        heapq.heapify(heap)
        live = [entry for entry in nowq if _live(entry)]
        nowq.clear()
        nowq.extend(live)
        self._dead = 0
        self._compactions += 1

    def stats(self) -> Dict[str, Any]:
        """Queue census: entries ever scheduled (events and calls),
        pending/dead counts, cancels, compactions."""
        pending = len(self._heap) + len(self._nowq)
        return {
            "now": self.now,
            "scheduled_total": self._seq,
            "pending": pending,
            "dead_pending": self._dead,
            "live_pending": pending - self._dead,
            "cancelled_total": self._cancelled_total,
            "compactions": self._compactions,
        }

    # ---------------------------------------------------------------- running
    def peek(self) -> float:
        """Time of the next live scheduled entry, or ``inf`` if none remain.

        Dead (cancelled) entries at the head of the queue are discarded
        as a side effect, so repeated peeks stay O(1) amortized.
        """
        heap, nowq = self._heap, self._nowq
        while True:
            # Heap entries stamped `now` precede the now-queue.
            from_nowq = nowq and not (heap and heap[0][0] == self.now)
            if from_nowq:
                when, entry = self.now, nowq[0]
            elif heap:
                when, _seq, entry = heap[0]
            else:
                return float("inf")
            if _live(entry):
                return when
            if from_nowq:
                nowq.popleft()
            else:
                _heappop(heap)
            self._dead -= 1

    def step(self) -> None:
        """Process exactly one live entry (fire an event, or run a call);
        raise SimulationError if none remain. Dead entries encountered on
        the way are discarded (and the queue compacted once they
        dominate)."""
        heap, nowq = self._heap, self._nowq
        while True:
            if nowq and not (heap and heap[0][0] == self.now):
                when, entry = self.now, nowq.popleft()
            elif heap:
                when, _seq, entry = _heappop(heap)
            else:
                raise SimulationError("no scheduled events")
            if entry.__class__ is tuple:
                self.now = when
                entry[0](entry[1])
                return
            if not entry._cancelled:
                self.now = when
                entry._fire()
                return
            self._buried()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the event queue drains or the clock reaches *until*.

        If *until* is given, the clock is advanced to exactly ``until`` when
        the run ends because of the deadline (even if the queue still holds
        later events); without one, the clock stays where the last event
        put it. An unhandled failure in any process propagates out of
        this call. A run ended by :meth:`request_stop` may leave events
        of the current instant queued for the next run.
        """
        if until is not None:
            until = float(until)
            if not until >= self.now:
                raise SimulationError(
                    f"until={until!r} is not at or after now={self.now!r}"
                )
        self._stop_requested = False
        heap, nowq = self._heap, self._nowq
        popleft = nowq.popleft
        now = self.now
        deadline = float("inf") if until is None else until
        call = tuple
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
                    self.now = until
                    return
                when, _seq, event = _heappop(heap)
                if event.__class__ is call or not event._cancelled:
                    now = self.now = when
            if event.__class__ is call:
                event[0](event[1])
                continue
            if event._cancelled:
                self._buried()
                continue
            # Event._fire written out, one call less per event;
            # step() fires through Event._fire, and a test holds
            # the two to the same outcome.
            if event._value is _PENDING:
                event._ok = True
                event._value = getattr(event, "_default_value", None)
            event._processed = True
            callbacks, event.callbacks = event.callbacks, []
            for cb in callbacks:
                if cb is not None:  # None = detached slot
                    cb(event)
            if not event._ok and not event._defused:
                raise event._value
        if until is not None:
            self.now = until

    def request_stop(self) -> None:
        """Stop :meth:`run` after the current entry finishes: the one
        way to end a run early, safe from inside a process or a call."""
        self._stop_requested = True

    # ---------------------------------------------------------------- helpers
    def call_at(self, when: float, fn: Callable[[], Any]) -> None:
        """Run the argument-free *fn* at absolute time *when*, queued as
        given (:meth:`schedule_call`), not as a delay from now."""
        self.schedule_call(when, (_call, fn))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Engine now={self.now:.6f} "
                f"pending={len(self._heap) + len(self._nowq)}>")
