"""Events, timeouts, processes, and the all-of composite.

The concurrency primitives of the simulation kernel. A :class:`Process`
wraps a Python generator: each ``yield`` hands the kernel an
:class:`Event`, and the process resumes when that event fires. Yielding a
*failed* event re-raises its exception inside the generator, so ordinary
``try/except`` works across simulated waits. Nothing else wakes a
process.
"""

from __future__ import annotations

from heapq import heappush as _heappush
from typing import TYPE_CHECKING, Any, Callable, Generator, List, Optional

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Engine

__all__ = ["Event", "Timeout", "Process", "AllOf"]

_PENDING = object()


class Event:
    """A one-shot occurrence in simulated time.

    An event is *triggered* once :meth:`succeed` or :meth:`fail` is called
    (which schedules it), and *processed* after its callbacks have run.
    Callbacks are plain callables invoked with the event.

    Events are the unit of allocation on the simulation hot path (every
    timeout, RPC, and lock wait creates one), so the whole hierarchy
    uses ``__slots__``; external subclasses may still add ad-hoc
    attributes (they simply regain a ``__dict__``).
    """

    __slots__ = ("engine", "callbacks", "_value", "_ok", "_scheduled",
                 "_processed", "_defused", "_cancelled")

    def __init__(self, engine: "Engine"):
        self.engine = engine
        self.callbacks: List[Optional[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        self._scheduled = False
        self._processed = False
        self._defused = False
        self._cancelled = False

    # ------------------------------------------------------------- state
    @property
    def triggered(self) -> bool:
        """True once the event has a value (success or failure)."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have been invoked."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded. Only valid once triggered."""
        if not self.triggered:
            raise SimulationError("event not yet triggered")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The success value or failure exception. Only valid once triggered."""
        if not self.triggered:
            raise SimulationError("event not yet triggered")
        return self._value

    # ---------------------------------------------------------- triggering
    def succeed(self, value: Any = None) -> "Event":
        """Mark the event successful with *value* and schedule it now."""
        if self._value is not _PENDING:
            raise SimulationError(f"{self!r} already triggered")
        # Engine._trigger(self) written out (the call every hop of the
        # request path makes): same checks, then onto the now-queue.
        # Every check comes first: a refused event keeps no value.
        if self._scheduled:
            raise SimulationError(f"{self!r} already scheduled")
        if self._cancelled:
            raise SimulationError(f"cannot schedule cancelled {self!r}")
        self._ok = True
        self._value = value
        self._scheduled = True
        engine = self.engine
        engine._seq += 1
        engine._nowq.append(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Mark the event failed with *exception* and schedule it now."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        self.engine._trigger(self)  # checks first: a refused one keeps no value
        self._ok = False
        self._value = exception
        return self

    def defuse(self) -> None:
        """Prevent an unhandled failure of this event from crashing the run."""
        self._defused = True

    def cancel(self) -> bool:
        """Mark this event dead so it never fires; returns True if marked.

        Cancellation is idempotent and illegal once the event has
        triggered (it has a value) or fired. A cancelled event is lazily
        discarded by the engine on pop, so cancel() is O(1); the engine
        compacts the queue when dead entries accumulate (DESIGN.md §15).
        """
        if self.triggered or self._processed:
            raise SimulationError(f"cannot cancel {self!r}: already triggered")
        if self._cancelled:
            return True
        self._cancelled = True
        # Drop callback references eagerly: a million-timer churn must not
        # pin closures (and the objects they capture) until compaction.
        self.callbacks = []
        if self._scheduled:
            self.engine._note_cancel()
        return True

    # ------------------------------------------------------------ callbacks
    def attach(self, callback: Callable[["Event"], None]) -> int:
        """Append *callback* and return an O(1) detach handle (its slot)."""
        cbs = self.callbacks
        cbs.append(callback)
        return len(cbs) - 1

    def detach(self, slot: int) -> None:
        """Remove the callback registered at *slot* (O(1), idempotent).

        No-op once the event has fired or been cancelled — the callback
        list has already been handed off (or dropped), so there is
        nothing left to detach.
        """
        if self._processed or self._cancelled:
            return
        cbs = self.callbacks
        if 0 <= slot < len(cbs):
            cbs[slot] = None

    # ------------------------------------------------------------- internal
    def _fire(self) -> None:
        """Invoke callbacks (called by the engine when this event is popped)."""
        if self._value is _PENDING:
            # A bare Timeout-like event scheduled without succeed(): treat
            # firing as success with its default value.
            self._ok = True
            self._value = getattr(self, "_default_value", None)
        self._processed = True
        callbacks, self.callbacks = self.callbacks, []
        for cb in callbacks:
            if cb is not None:  # None = detached slot
                cb(self)
        if not self._ok and not self._defused:
            raise self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires ``delay`` seconds after creation."""

    __slots__ = ("delay", "_default_value")

    def __init__(self, engine: "Engine", delay: float, value: Any = None):
        # Event.__init__ and the engine's queueing written out: the
        # same checks and fields, two calls less per timer.
        self.delay = float(delay)
        # Negated so that NaN, which compares false both ways, fails too.
        if not delay >= 0:
            raise SimulationError(f"negative or NaN delay: {delay!r}")
        self.engine = engine
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self._scheduled = True
        self._processed = False
        self._defused = False
        self._cancelled = False
        self._default_value = value
        now = engine.now
        when = now + delay
        seq = engine._seq
        engine._seq = seq + 1
        if when == now:
            engine._nowq.append(self)
        else:
            _heappush(engine._heap, (when, seq, self))


#: What a process's first resume reads: a fired event with value None.
#: A process starts from the call ``(process._resume, _STARTED)``.
_STARTED = Event(None)
_STARTED._ok = True
_STARTED._value = None
_STARTED._scheduled = _STARTED._processed = True


class Process(Event):
    """A running simulation process.

    The process itself is an event: it triggers when the generator returns
    (success, value = the ``return`` value) or raises (failure). Other
    processes may therefore ``yield`` a process to join it.
    """

    __slots__ = ("_generator",)

    def __init__(self, engine: "Engine", generator: Generator):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(f"not a generator: {generator!r}")
        super().__init__(engine)
        self._generator = generator
        engine.schedule_call(engine.now, (self._resume, _STARTED))

    @property
    def name(self) -> str:
        return getattr(self._generator, "__name__", "process")

    # ------------------------------------------------------------- internal
    def _resume(self, event: Event) -> None:
        """Drive the generator with *event*'s outcome until it waits on
        an event that has not fired, or ends.

        Each resume answers one wait: the start call, queued once, or
        the one callback appended to the event the generator waits on
        (an event runs its callbacks once, and nothing detaches this
        one). A finished process waits on nothing, so nothing resumes
        it again.
        """
        engine = self.engine
        generator = self._generator
        while True:
            try:
                if event._ok:
                    target = generator.send(event._value)
                else:
                    event._defused = True
                    target = generator.throw(event._value)
                while not isinstance(target, Event):
                    # What the generator yields after catching this
                    # is its next target, checked the same way.
                    target = generator.throw(SimulationError(
                        f"process {self.name!r} yielded a non-event: "
                        f"{target!r}"))
            except StopIteration as stop:
                self._ok = True
                self._value = stop.value
                engine._trigger(self)
                return
            except BaseException as exc:
                self._ok = False
                self._value = exc
                engine._trigger(self)
                return
            if not target._processed:
                target.callbacks.append(self._resume)
                return
            # Already fired: resume synchronously with its value.
            event = target


class AllOf(Event):
    """Composite event over a list of events: succeeds with their values
    once *all* of them have succeeded, fails with the first failure."""

    __slots__ = ("_events", "_count", "_slots")

    def __init__(self, engine: "Engine", events: List[Event]):
        super().__init__(engine)
        self._events = events
        self._count = 0
        self._slots: List = []
        if not events:
            self.succeed([])
            return
        for ev in events:
            if ev.processed:
                self._check(ev)
            else:
                self._slots.append((ev, ev.attach(self._check)))

    def _detach_rest(self) -> None:
        """Let go of constituents that have not fired yet.

        Once the first failure has failed this event, the remaining
        _check callbacks would be no-ops; detaching them keeps it (and
        its whole event list) from being pinned in every pending
        event's callback list until that event fires.
        """
        slots, self._slots = self._slots, []
        for ev, slot in slots:
            ev.detach(slot)

    def _check(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            self._detach_rest()
            return
        self._count += 1
        if self._count == len(self._events):
            self.succeed([ev._value for ev in self._events])
            self._detach_rest()
