"""Unit tests for the DES kernel: clock, ordering, run/step semantics."""

import pytest

from repro.errors import SimulationError
from repro.sim import Engine


def test_clock_starts_at_zero():
    eng = Engine()
    assert eng.now == 0.0


def test_clock_custom_start():
    eng = Engine(start=5.0)
    assert eng.now == 5.0


def test_timeout_advances_clock():
    eng = Engine()

    def proc():
        yield eng.timeout(1.5)

    eng.process(proc())
    eng.run()
    assert eng.now == pytest.approx(1.5)


def test_events_fire_in_time_order():
    eng = Engine()
    order = []

    def proc(delay, tag):
        yield eng.timeout(delay)
        order.append(tag)

    eng.process(proc(3.0, "c"))
    eng.process(proc(1.0, "a"))
    eng.process(proc(2.0, "b"))
    eng.run()
    assert order == ["a", "b", "c"]


def test_simultaneous_events_fire_in_schedule_order():
    eng = Engine()
    order = []

    def proc(tag):
        yield eng.timeout(1.0)
        order.append(tag)

    for tag in ["first", "second", "third"]:
        eng.process(proc(tag))
    eng.run()
    assert order == ["first", "second", "third"]


def test_run_until_stops_clock_at_deadline():
    eng = Engine()

    def proc():
        yield eng.timeout(10.0)

    eng.process(proc())
    eng.run(until=4.0)
    assert eng.now == pytest.approx(4.0)
    # The event is still pending; continuing completes it.
    eng.run()
    assert eng.now == pytest.approx(10.0)


def test_run_until_past_raises():
    eng = Engine(start=5.0)
    with pytest.raises(SimulationError):
        eng.run(until=1.0)


def test_run_until_with_empty_queue_advances_clock():
    eng = Engine()
    eng.run(until=7.0)
    assert eng.now == pytest.approx(7.0)


def test_step_without_events_raises():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.step()


def test_peek_reports_next_event_time():
    eng = Engine()
    eng.timeout(2.5)
    assert eng.peek() == pytest.approx(2.5)


def test_peek_empty_is_inf():
    eng = Engine()
    assert eng.peek() == float("inf")


def test_negative_delay_rejected():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.timeout(-1.0)


def test_nan_times_rejected():
    # NaN compares false both ways: a `when < now` test let it through,
    # it fired first, and the clock read NaN for the rest of the run.
    eng = Engine()
    for t in (1.0, 2.0, 3.0):
        eng.timeout(t)
    nan = float("nan")
    with pytest.raises(SimulationError):
        eng.timeout(nan)
    with pytest.raises(SimulationError):
        eng.schedule_at(eng.event(), nan)
    with pytest.raises(SimulationError):
        eng.run(until=nan)
    eng.run()
    assert eng.now == 3.0


def test_stop_from_callback_halts_run():
    eng = Engine()
    seen = []

    def proc():
        yield eng.timeout(1.0)
        seen.append("early")
        eng.stop()
        seen.append("unreached")  # pragma: no cover

    def late():
        yield eng.timeout(2.0)
        seen.append("late")  # pragma: no cover

    eng.process(proc())
    eng.process(late())
    eng.run()
    assert seen == ["early"]


def test_call_at_runs_callback_at_time():
    eng = Engine()
    hits = []
    eng.call_at(3.0, lambda: hits.append(eng.now))
    eng.run()
    assert hits == [3.0]

    # Armed after the clock moved, it still fires at exactly *when*:
    # (0.9 - 0.3) + 0.3 would be 0.9000000000000001.
    eng = Engine()
    eng.run(until=0.3)
    eng.call_at(0.9, lambda: hits.append(eng.now))
    eng.run()
    assert hits == [3.0, 0.9]


def test_call_at_past_raises():
    eng = Engine(start=2.0)
    with pytest.raises(SimulationError):
        eng.call_at(1.0, lambda: None)


def test_unhandled_process_exception_propagates():
    eng = Engine()

    def bad():
        yield eng.timeout(1.0)
        raise ValueError("boom")

    eng.process(bad())
    with pytest.raises(ValueError, match="boom"):
        eng.run()


def test_process_return_value_is_event_value():
    eng = Engine()
    results = []

    def child():
        yield eng.timeout(1.0)
        return 42

    def parent():
        value = yield eng.process(child())
        results.append(value)

    eng.process(parent())
    eng.run()
    assert results == [42]


def test_schedule_at_queues_the_time_as_given():
    # The clock reads exactly the time given (no delay arithmetic in
    # between), and ties at it fire in scheduling order.
    eng = Engine(start=0.1)
    fired = []
    for tag in "ab":
        ev = eng.event()
        ev.callbacks.append(lambda _ev, tag=tag: fired.append((tag, eng.now)))
        ev.succeed_at(0.3, tag)
    eng.run()
    assert fired == [("a", 0.3), ("b", 0.3)]


def test_schedule_at_rejects_the_past_and_double_scheduling():
    eng = Engine(start=1.0)
    with pytest.raises(SimulationError):
        eng.schedule_at(eng.event(), 0.5)
    ev = eng.event().succeed_at(2.0)
    with pytest.raises(SimulationError):
        eng.schedule_at(ev, 3.0)
    with pytest.raises(SimulationError):
        ev.succeed_at(3.0)


def test_stats_scheduled_total_matches_a_hand_count():
    eng = Engine()
    assert eng.stats()["scheduled_total"] == 0

    def proc():
        yield eng.timeout(1.0)          # 2: the timeout
        yield eng.event().succeed()     # 3: a triggered event
        # 4: the process's own completion event when it returns

    eng.process(proc())                 # 1: the Initialize kick-off
    cancelled = eng.timeout(5.0)        # 5: scheduled, then cancelled —
    cancelled.cancel()                  #    still counts as scheduled
    eng.event()                         # never scheduled: not counted
    eng.run()
    stats = eng.stats()
    assert stats["scheduled_total"] == 5
    assert stats["cancelled_total"] == 1
    assert stats["pending"] == 0
