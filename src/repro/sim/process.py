"""Events, timeouts, processes, and composite conditions.

The concurrency primitives of the simulation kernel. A :class:`Process`
wraps a Python generator: each ``yield`` hands the kernel an
:class:`Event`, and the process resumes when that event fires. Yielding a
*failed* event re-raises its exception inside the generator, so ordinary
``try/except`` works across simulated waits.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, List, Optional

from ..errors import InterruptError, SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Engine

__all__ = ["Event", "Timeout", "Process", "Condition", "AllOf", "AnyOf"]

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
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has marked this event dead."""
        return self._cancelled

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
        self._ok = True
        self._value = value
        # Engine.schedule_at(self, now) written out (the call every hop
        # of the request path makes): same checks, then straight onto
        # the now-queue.
        if self._scheduled:
            raise SimulationError(f"{self!r} already scheduled")
        if self._cancelled:
            raise SimulationError(f"cannot schedule cancelled {self!r}")
        self._scheduled = True
        engine = self.engine
        engine._seq += 1
        engine._nowq.append(self)
        return self

    def succeed_at(self, when: float, value: Any = None) -> "Event":
        """Mark the event successful with *value*, to fire at the
        absolute simulated time *when* (:meth:`Engine.schedule_at`)."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._ok = True
        self._value = value
        self.engine.schedule_at(self, when)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Mark the event failed with *exception* and schedule it now."""
        if self.triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        self.engine.schedule(self)
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
        super().__init__(engine)
        self.delay = float(delay)
        self._default_value = value
        engine.schedule(self, delay)


class Initialize(Event):
    """Internal event used to start a new process on the next step."""

    __slots__ = ()

    def __init__(self, engine: "Engine", process: "Process"):
        super().__init__(engine)
        self.callbacks.append(process._resume)
        self._ok = True
        self._value = None
        engine.schedule(self)


class Process(Event):
    """A running simulation process.

    The process itself is an event: it triggers when the generator returns
    (success, value = the ``return`` value) or raises (failure). Other
    processes may therefore ``yield`` a process to join it.
    """

    __slots__ = ("_generator", "_target", "_target_slot")

    def __init__(self, engine: "Engine", generator: Generator):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise SimulationError(f"not a generator: {generator!r}")
        super().__init__(engine)
        self._generator = generator
        self._target: Optional[Event] = None
        self._target_slot = -1
        Initialize(engine, self)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    @property
    def name(self) -> str:
        return getattr(self._generator, "__name__", "process")

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`InterruptError` inside the process at its next resume.

        Interrupting a finished process is an error; interrupting a process
        blocked on an event detaches it from that event first.
        """
        if self.triggered:
            raise SimulationError("cannot interrupt a finished process")
        if self._target is not None:
            # O(1): null out our slot instead of scanning the (possibly
            # thousands-long) callback list of a contended event.
            self._target.detach(self._target_slot)
            self._target = None
        ev = Event(self.engine)
        ev.callbacks.append(self._resume)
        ev._ok = False
        ev._value = InterruptError(cause)
        ev._defused = True  # the process handles it (or dies), not the kernel
        self.engine.schedule(ev)

    # ------------------------------------------------------------- internal
    def _resume(self, event: Event) -> None:
        if self._value is not _PENDING:
            # Already finished: a stale wakeup (e.g. an interrupt racing
            # the generator's own final return) must not re-drive the
            # exhausted generator or re-schedule the process event.
            return
        engine = self.engine
        prev, engine._active_process = engine._active_process, self
        try:
            while True:
                try:
                    if event._ok:
                        target = self._generator.send(event._value)
                    else:
                        event._defused = True
                        target = self._generator.throw(event._value)
                except StopIteration as stop:
                    self._ok = True
                    self._value = stop.value
                    engine.schedule(self)
                    return
                except BaseException as exc:
                    self._ok = False
                    self._value = exc
                    engine.schedule(self)
                    return

                if not isinstance(target, Event):
                    exc = SimulationError(
                        f"process {self.name!r} yielded a non-event: {target!r}")
                    try:
                        self._generator.throw(exc)
                    except BaseException as err:
                        self._ok = isinstance(err, StopIteration)
                        self._value = (err.value if isinstance(err, StopIteration)
                                       else err)
                        engine.schedule(self)
                        return
                    continue

                if target.processed:
                    # Already fired: resume synchronously with its value.
                    event = target
                    continue
                self._target_slot = target.attach(self._resume)
                self._target = target
                return
        finally:
            engine._active_process = prev
            if self._target is not None and self._target.processed:
                self._target = None


class Condition(Event):
    """Composite event over a list of events; see :class:`AllOf`/:class:`AnyOf`."""

    __slots__ = ("_events", "_evaluate", "_count", "_slots")

    def __init__(self, engine: "Engine", events: List[Event],
                 evaluate: Callable[[List[Event], int], bool]):
        super().__init__(engine)
        self._events = events
        self._evaluate = evaluate
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

        Once the condition has triggered, the remaining _check callbacks
        would be no-ops; detaching them keeps an AnyOf loser from pinning
        this condition (and its whole event list) in every pending
        event's callback list until it fires.
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
        if self._evaluate(self._events, self._count):
            self.succeed([ev._value for ev in self._events if ev.triggered and ev._ok])
            self._detach_rest()


class AllOf(Condition):
    """Triggers once *all* constituent events have succeeded."""

    __slots__ = ()

    def __init__(self, engine: "Engine", events: List[Event]):
        super().__init__(engine, events, lambda evs, n: n == len(evs))


class AnyOf(Condition):
    """Triggers as soon as *any* constituent event succeeds (or one fails)."""

    __slots__ = ()

    def __init__(self, engine: "Engine", events: List[Event]):
        super().__init__(engine, events, lambda evs, n: n >= 1)
