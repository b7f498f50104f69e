"""Tests for events, processes, interrupts, and composite conditions."""

import pytest

from repro.errors import InterruptError, SimulationError
from repro.sim import Engine


@pytest.fixture
def eng():
    return Engine()


class TestEvent:
    def test_succeed_delivers_value(self, eng):
        got = []

        def proc():
            value = yield ev
            got.append(value)

        ev = eng.event()

        def trigger():
            yield eng.timeout(1.0)
            ev.succeed("payload")

        eng.process(proc())
        eng.process(trigger())
        eng.run()
        assert got == ["payload"]

    def test_double_succeed_raises(self, eng):
        ev = eng.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_fail_raises_inside_waiter(self, eng):
        caught = []

        def proc():
            try:
                yield ev
            except RuntimeError as exc:
                caught.append(str(exc))

        ev = eng.event()
        eng.process(proc())
        ev.fail(RuntimeError("broken"))
        eng.run()
        assert caught == ["broken"]

    def test_fail_needs_exception(self, eng):
        ev = eng.event()
        with pytest.raises(SimulationError):
            ev.fail("not an exception")

    def test_unwaited_failure_propagates_unless_defused(self, eng):
        ev = eng.event()
        ev.fail(RuntimeError("nobody listening"))
        with pytest.raises(RuntimeError):
            eng.run()

        eng2 = Engine()
        ev2 = eng2.event()
        ev2.fail(RuntimeError("quiet"))
        ev2.defuse()
        eng2.run()  # no raise

    def test_value_before_trigger_raises(self, eng):
        ev = eng.event()
        with pytest.raises(SimulationError):
            _ = ev.value
        with pytest.raises(SimulationError):
            _ = ev.ok

    def test_yield_already_processed_event_resumes_immediately(self, eng):
        trail = []

        def proc():
            ev = eng.timeout(1.0, value="x")
            yield eng.timeout(2.0)
            assert ev.processed
            value = yield ev  # must not deadlock
            trail.append((eng.now, value))

        eng.process(proc())
        eng.run()
        assert trail == [(pytest.approx(2.0), "x")]


class TestProcess:
    def test_yield_non_event_raises_in_process(self, eng):
        def proc():
            yield 42

        p = eng.process(proc())
        with pytest.raises(SimulationError):
            eng.run()
        assert p.triggered and not p.ok

    def test_is_alive_lifecycle(self, eng):
        def proc():
            yield eng.timeout(1.0)

        p = eng.process(proc())
        assert p.is_alive
        eng.run()
        assert not p.is_alive
        assert p.ok

    def test_interrupt_wakes_blocked_process(self, eng):
        trail = []

        def victim():
            try:
                yield eng.timeout(100.0)
            except InterruptError as exc:
                trail.append((eng.now, exc.cause))

        def attacker(p):
            yield eng.timeout(1.0)
            p.interrupt(cause="reason")

        p = eng.process(victim())
        eng.process(attacker(p))
        eng.run()
        assert trail == [(pytest.approx(1.0), "reason")]

    def test_interrupt_finished_process_raises(self, eng):
        def quick():
            yield eng.timeout(0.1)

        p = eng.process(quick())
        eng.run()
        with pytest.raises(SimulationError):
            p.interrupt()

    def test_interrupted_process_can_continue(self, eng):
        trail = []

        def victim():
            try:
                yield eng.timeout(100.0)
            except InterruptError:
                pass
            yield eng.timeout(1.0)
            trail.append(eng.now)

        def attacker(p):
            yield eng.timeout(2.0)
            p.interrupt()

        p = eng.process(victim())
        eng.process(attacker(p))
        eng.run()
        assert trail == [pytest.approx(3.0)]

    def test_process_failure_joins_as_exception(self, eng):
        caught = []

        def child():
            yield eng.timeout(1.0)
            raise KeyError("inner")

        def parent():
            try:
                yield eng.process(child())
            except KeyError:
                caught.append("yes")

        eng.process(parent())
        eng.run()
        assert caught == ["yes"]

    def test_non_generator_rejected(self, eng):
        with pytest.raises(SimulationError):
            eng.process(lambda: None)


class TestConditions:
    def test_all_of_waits_for_every_event(self, eng):
        done_at = []

        def proc():
            yield eng.all_of([eng.timeout(1.0), eng.timeout(3.0), eng.timeout(2.0)])
            done_at.append(eng.now)

        eng.process(proc())
        eng.run()
        assert done_at == [pytest.approx(3.0)]

    def test_all_of_empty_fires_immediately(self, eng):
        done = []

        def proc():
            yield eng.all_of([])
            done.append(eng.now)

        eng.process(proc())
        eng.run()
        assert done == [pytest.approx(0.0)]

    def test_all_of_propagates_failure(self, eng):
        caught = []
        bad = eng.event()

        def proc():
            try:
                yield eng.all_of([eng.timeout(1.0), bad])
            except RuntimeError:
                caught.append(eng.now)

        eng.process(proc())
        bad.fail(RuntimeError("x"))
        eng.run()
        assert len(caught) == 1

    def test_all_of_collects_values(self, eng):
        got = []

        def proc():
            values = yield eng.all_of(
                [eng.timeout(1.0, value="a"), eng.timeout(2.0, value="b")])
            got.append(values)

        eng.process(proc())
        eng.run()
        assert got == [["a", "b"]]
