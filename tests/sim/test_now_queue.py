"""The now-queue changes no firing order: a heap-only engine is the oracle.

``Engine`` keeps entries scheduled at the current instant in a FIFO beside
the heap. :class:`HeapOnlyEngine` is the loop it replaced — every entry a
``(time, seq, entry)`` tuple through one binary heap — kept here, and only
here, as the reference. An entry is an event or a ``(fn, arg)`` call.
Random programs of nested events (timers, zero-delay triggers, failures,
cancellations), calls, process starts and stops are interpreted on both; the firing sequence,
the clock and ``stats()`` must agree after every command. Driven by
``run`` or by ``step`` alone, the engine must end alike, and no
compaction may lose a call.
"""

import heapq
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import Engine
from repro.sim import engine as engine_module
from repro.sim.process import Event


class _ViaHeap:
    """Stands where the now-queue is: ``Event.succeed`` appends here."""

    def __init__(self, engine):
        self.engine = engine

    def append(self, entry):
        engine = self.engine  # the caller has already counted the entry
        heapq.heappush(engine._heap, (engine.now, engine._seq - 1, entry))

    def __len__(self):
        return 0              # stats(): everything pending is in the heap


class HeapOnlyEngine(Engine):
    """The queue of the parent commit: one heap, ``(time, seq)`` order."""

    def __init__(self, start=0.0):
        super().__init__(start)
        self._nowq = _ViaHeap(self)

    def schedule_call(self, when, entry):
        if when < self.now:
            raise SimulationError("in the past")
        heapq.heappush(self._heap, (when, self._seq, entry))
        self._seq += 1

    def _compact(self):
        self._heap[:] = [e for e in self._heap
                         if isinstance(e[2], tuple) or not e[2]._cancelled]
        heapq.heapify(self._heap)
        self._dead = 0
        self._compactions += 1

    def peek(self):
        heap = self._heap
        while heap:
            if isinstance(heap[0][2], tuple) or not heap[0][2]._cancelled:
                return heap[0][0]
            heapq.heappop(heap)
            self._dead -= 1
        return float("inf")

    def _bury(self):
        self._dead -= 1
        if (self._dead > engine_module._COMPACT_MIN_DEAD
                and self._dead * 2 > len(self._heap)):
            self._compact()

    def step(self):
        heap = self._heap
        while heap:
            when, _seq, entry = heapq.heappop(heap)
            if not self._fire(when, entry):
                self._bury()
                continue
            return
        raise SimulationError("no scheduled events")

    def _fire(self, when, entry):
        """Run a call or fire a live event at *when*; False if dead."""
        if isinstance(entry, tuple):
            self.now = when
            fn, arg = entry
            fn(arg)
            return True
        if entry._cancelled:
            return False
        self.now = when
        entry._fire()
        return True

    def run(self, until=None):
        self._stop_requested = False
        heap = self._heap
        while heap:
            if self._stop_requested:
                return
            if until is not None and heap[0][0] > until:
                self.now = until
                return
            when, _seq, entry = heapq.heappop(heap)
            if not self._fire(when, entry):
                self._bury()
        if until is not None:
            self.now = until


# A program is a flat list of ops; every event, call or process start
# that fires executes the next `fanout` of them (a shared cursor,
# wrapping), so schedules nest until MAX_EVENTS entries have been made.
# Only timers and calls carry a time: "succeed", "fail" and a process's
# end trigger at the current instant, and a zero-delay timer (its own
# op, so that enough now-queue entries can be cancelled to compact)
# queues there too. Delays reach equal floats by different sums
# (0.15 + 0.15 and 0.1 + 0.2 against 0.3; 0.25 + 0.25 against 0.5);
# "timer_at" turns an absolute time back into a delay from now.
MAX_EVENTS = 150
DELAYS = [0.0, 1e-9, 0.1, 0.15, 0.2, 0.25, 0.3, 0.5]
ABSOLUTE = [0.3, 0.5, 0.6, 1.0]

ops = st.lists(
    st.one_of(
        st.tuples(st.just("succeed"), st.integers(0, 3), st.just(0)),
        st.tuples(st.just("timer"), st.integers(0, 3), st.just(0.0)),
        st.tuples(st.just("fail"), st.integers(0, 3), st.just(0)),
        st.tuples(st.sampled_from(["timer", "call"]),
                  st.integers(0, 3), st.sampled_from(DELAYS)),
        st.tuples(st.sampled_from(["timer_at", "call_at"]),
                  st.integers(0, 3), st.sampled_from(ABSOLUTE)),
        st.tuples(st.just("process"), st.integers(0, 3), st.just(0)),
        st.tuples(st.just("cancel"), st.integers(0, 50), st.just(0)),
        st.tuples(st.just("doomed"), st.integers(1, 8),
                  st.sampled_from(DELAYS)),
        st.tuples(st.just("request_stop"), st.just(0), st.just(0)),
    ), min_size=1, max_size=30)

commands = st.lists(
    st.one_of(
        st.tuples(st.just("run"), st.just(0.0)),
        st.tuples(st.just("until"), st.sampled_from([0.0, 1e-9, 0.3, 1.0])),
        st.tuples(st.sampled_from(["step", "peek"]), st.just(0.0)),
    ), min_size=1, max_size=12)


class Interpreter:
    """Runs one program on one engine and logs what fired, and when."""

    def __init__(self, engine, program, roots):
        self.engine = engine
        self.program = program
        self.cursor = 0
        self.made = 0
        self.events = []          # what a "cancel" op picks from
        self.calls = []           # the idents of the call entries made
        self.log = []
        for fanout in roots:
            self.spawn("succeed", fanout, 0)

    def spawn(self, kind, fanout, arg):
        if self.made == MAX_EVENTS:
            return
        engine = self.engine
        ident = self.made
        self.made += 1
        if kind in ("call", "call_at"):
            self.calls.append(ident)
            when = (engine.now + arg if kind == "call"
                    else max(arg, engine.now))
            engine.schedule_call(when, (self.called, (ident, fanout)))
            return
        if kind == "process":
            engine.process(self.started(ident, fanout))
            return
        if kind == "timer":
            event = engine.timeout(arg)
        elif kind == "timer_at":
            event = engine.timeout(max(arg - engine.now, 0.0))
        else:
            event = Event(engine)
        self.events.append(event)
        event.callbacks.append(lambda _ev: self.fired(ident, fanout))
        if kind == "succeed":
            event.succeed()
        elif kind == "fail":
            event.defuse()
            event.fail(RuntimeError(ident))

    def called(self, arg):
        ident, fanout = arg
        self.log.append("call")
        self.fired(ident, fanout)

    def started(self, ident, fanout):
        self.log.append("start")
        self.fired(ident, fanout)
        return
        yield  # pragma: no cover - makes this a generator

    def fired(self, ident, fanout):
        engine = self.engine
        self.log.append((ident, engine.now))
        for _ in range(fanout):
            kind, a, b = self.program[self.cursor % len(self.program)]
            self.cursor += 1
            if kind == "cancel":
                try:
                    self.events[a % len(self.events)].cancel()
                except SimulationError:      # it has a value, or fired
                    self.log.append(("refused", a))
            elif kind == "doomed":
                # Timers cancelled as soon as made: enough dead entries
                # at once for the queue to compact around live ones.
                for _ in range(min(a, MAX_EVENTS - self.made)):
                    self.made += 1
                    engine.timeout(b).cancel()
            elif kind == "request_stop":
                engine.request_stop()
            else:
                self.spawn(kind, a, b)

    def command(self, kind, arg):
        engine = self.engine
        if kind == "run":
            engine.run()
        elif kind == "until":
            engine.run(until=engine.now + arg)
        elif kind == "peek":
            self.log.append(("peek", engine.peek()))
        else:
            try:
                engine.step()
            except SimulationError:
                self.log.append("nothing to step")


@settings(max_examples=300)
@given(ops, st.lists(st.integers(0, 3), min_size=1, max_size=4), commands)
# A stop requested by the last event does not end the run early: the
# queue is empty, so the clock still goes to the deadline.
@example(program=[("request_stop", 0, 0)], roots=[1],
         script=[("until", 1e-09)])
def test_firing_order_and_census_equal_the_heap_only_engine(
        program, roots, script):
    # Compaction from the second dead entry on, so that it happens.
    with mock.patch.object(engine_module, "_COMPACT_MIN_DEAD", 1):
        new = Interpreter(Engine(), program, roots)
        old = Interpreter(HeapOnlyEngine(), program, roots)
        script = list(script)
        while script or new.engine.stats()["live_pending"]:
            kind, arg = script.pop(0) if script else ("run", 0.0)
            new.command(kind, arg)
            old.command(kind, arg)
            assert new.log == old.log
            assert new.engine.stats() == old.engine.stats()
        assert_every_call_ran_once(new)


def assert_every_call_ran_once(interp):
    ran = [entry[0] for entry in interp.log
           if isinstance(entry, tuple) and entry[0] in interp.calls]
    assert sorted(ran) == interp.calls


@settings(max_examples=200)
@given(ops, st.lists(st.integers(0, 3), min_size=1, max_size=4))
def test_run_and_step_alone_end_alike(program, roots):
    # Compaction from the second dead entry on, so that it happens.
    with mock.patch.object(engine_module, "_COMPACT_MIN_DEAD", 1):
        ran = Interpreter(Engine(), program, roots)
        while ran.engine.stats()["pending"]:
            ran.command("run", 0.0)
        stepped = Interpreter(Engine(), program, roots)
        while stepped.log[-1:] != ["nothing to step"]:
            stepped.command("step", 0.0)
        stepped.log.pop()
        assert stepped.log == ran.log
        assert stepped.engine.stats() == ran.engine.stats()
        assert_every_call_ran_once(ran)
        assert_every_call_ran_once(stepped)


def test_heap_entries_stamped_now_fire_before_the_now_queue():
    eng = Engine()
    order = []

    def at_one(_ev):
        # Scheduled *at* t = 1, so behind b, which was scheduled for
        # t = 1 while the clock was still 0.
        Event(eng).succeed().callbacks.append(lambda _e: order.append("c"))
        order.append("a")

    eng.timeout(1.0).callbacks.append(at_one)
    eng.timeout(1.0).callbacks.append(lambda _e: order.append("b"))
    eng.run()
    assert order == ["a", "b", "c"]


def test_stop_leaves_the_instants_events_for_the_next_run():
    eng = Engine()
    fired = []
    first = Event(eng).succeed()
    first.callbacks.append(lambda _e: eng.request_stop())
    Event(eng).succeed().callbacks.append(lambda _e: fired.append(eng.now))
    eng.run(until=5.0)
    assert fired == [] and eng.now == 0.0
    assert eng.stats()["pending"] == 1 and eng.peek() == 0.0
    eng.run(until=5.0)
    assert fired == [0.0] and eng.now == 5.0


def test_cancelled_now_queue_entry_is_skipped_and_counted():
    eng = Engine()
    doomed = eng.timeout(0.0)
    fired = []
    doomed.callbacks.append(fired.append)
    assert eng.stats()["pending"] == 1
    doomed.cancel()
    assert eng.stats()["dead_pending"] == 1
    assert eng.peek() == float("inf")        # discards the corpse
    assert eng.stats()["pending"] == 0 == eng.stats()["dead_pending"]
    eng.run()
    assert fired == []
