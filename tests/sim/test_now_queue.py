"""The now-queue changes no firing order: a heap-only engine is the oracle.

``Engine`` keeps events scheduled at the current instant in a FIFO beside
the heap. :class:`HeapOnlyEngine` is the loop it replaced — every entry a
``(time, seq, event)`` tuple through one binary heap — kept here, and only
here, as the reference. Random programs of nested schedules, cancels and
stops are interpreted on both; the firing sequence, the clock and
``stats()`` must agree after every command.
"""

import heapq
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError, StopSimulation
from repro.sim import Engine
from repro.sim import engine as engine_module
from repro.sim.process import Event


class _ViaHeap:
    """Stands where the now-queue is: ``Event.succeed`` appends here."""

    def __init__(self, engine):
        self.engine = engine

    def append(self, event):
        engine = self.engine  # succeed() has already counted the event
        heapq.heappush(engine._heap, (engine._now, engine._seq - 1, event))

    def __len__(self):
        return 0              # stats(): everything pending is in the heap


class HeapOnlyEngine(Engine):
    """The queue of the parent commit: one heap, ``(time, seq)`` order."""

    def __init__(self, start=0.0):
        super().__init__(start)
        self._nowq = _ViaHeap(self)

    def schedule_at(self, event, when):
        if when < self._now:
            raise SimulationError("in the past")
        if event._scheduled:
            raise SimulationError("already scheduled")
        if event._cancelled:
            raise SimulationError("cancelled")
        event._scheduled = True
        heapq.heappush(self._heap, (when, self._seq, event))
        self._seq += 1

    def _compact(self):
        self._heap[:] = [e for e in self._heap if not e[2]._cancelled]
        heapq.heapify(self._heap)
        self._dead = 0
        self._compactions += 1

    def peek(self):
        heap = self._heap
        while heap:
            if not heap[0][2]._cancelled:
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
            when, _seq, event = heapq.heappop(heap)
            if event._cancelled:
                self._bury()
                continue
            self._now = when
            event._fire()
            return
        raise SimulationError("no scheduled events")

    def run(self, until=None):
        self._stop_requested = False
        heap = self._heap
        try:
            while heap:
                if self._stop_requested:
                    return
                if until is not None and heap[0][0] > until:
                    self._now = until
                    return
                when, _seq, event = heapq.heappop(heap)
                if event._cancelled:
                    self._bury()
                    continue
                self._now = when
                event._fire()
        except StopSimulation:
            return
        if until is not None:
            self._now = until


# A program is a flat list of ops; every event that fires executes the
# next `fanout` of them (a shared cursor, wrapping), so schedules nest
# until MAX_EVENTS have been made. Delays reach equal floats by
# different sums (0.15 + 0.15 and 0.1 + 0.2 against 0.3; 0.25 + 0.25
# against 0.5).
MAX_EVENTS = 150
DELAYS = [0.0, 1e-9, 0.1, 0.15, 0.2, 0.25, 0.3, 0.5]
ABSOLUTE = [0.3, 0.5, 0.6, 1.0]

ops = st.lists(
    st.one_of(
        st.tuples(st.just("succeed"), st.integers(0, 3), st.just(0)),
        st.tuples(st.just("at_now"), st.integers(0, 3), st.just(0)),
        st.tuples(st.just("timeout"), st.integers(0, 3),
                  st.sampled_from(DELAYS)),
        st.tuples(st.just("at"), st.integers(0, 3),
                  st.sampled_from(ABSOLUTE)),
        st.tuples(st.just("cancel"), st.integers(0, 50), st.just(0)),
        st.tuples(st.sampled_from(["request_stop", "stop"]), st.just(0),
                  st.just(0)),
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
        self.created = []
        self.log = []
        for fanout in roots:
            self.spawn("succeed", fanout, 0)

    def spawn(self, kind, fanout, arg):
        if len(self.created) == MAX_EVENTS:
            return
        engine = self.engine
        event = Event(engine)
        ident = len(self.created)
        self.created.append(event)
        event.callbacks.append(lambda _ev: self.fired(ident, fanout))
        if kind == "succeed":
            event.succeed()
        elif kind == "at_now":
            engine.schedule_at(event, engine.now)
        elif kind == "timeout":
            engine.schedule(event, arg)
        else:
            engine.schedule_at(event, max(arg, engine.now))

    def fired(self, ident, fanout):
        engine = self.engine
        self.log.append((ident, engine.now))
        for _ in range(fanout):
            kind, a, b = self.program[self.cursor % len(self.program)]
            self.cursor += 1
            if kind == "cancel":
                try:
                    self.created[a % len(self.created)].cancel()
                except SimulationError:      # it has a value, or fired
                    self.log.append(("refused", a))
            elif kind == "request_stop":
                engine.request_stop()
            elif kind == "stop":
                engine.stop()
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
            except StopSimulation:
                self.log.append("stopped in step")
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


def test_heap_entries_stamped_now_fire_before_the_now_queue():
    eng = Engine()
    order = []

    def at_one(_ev):
        # Scheduled *at* t = 1, so behind b, which was scheduled for
        # t = 1 while the clock was still 0.
        eng.event().succeed().callbacks.append(lambda _e: order.append("c"))
        order.append("a")

    eng.timeout(1.0).callbacks.append(at_one)
    eng.timeout(1.0).callbacks.append(lambda _e: order.append("b"))
    eng.run()
    assert order == ["a", "b", "c"]


def test_stop_leaves_the_instants_events_for_the_next_run():
    eng = Engine()
    fired = []
    first = eng.event().succeed()
    first.callbacks.append(lambda _e: eng.request_stop())
    eng.event().succeed().callbacks.append(lambda _e: fired.append(eng.now))
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
