"""Event cancellation: semantics and queue hygiene."""

import pytest

from repro.errors import SimulationError
from repro.sim import Engine


# -------------------------------------------------------------- semantics
def test_cancelled_timer_never_fires():
    eng = Engine()
    fired = []
    t = eng.timeout(1.0)
    t.callbacks.append(lambda ev: fired.append(ev))
    assert t.cancel() is True
    assert t.cancelled
    eng.run()
    assert fired == []
    assert eng.now == 0.0  # the corpse is skipped, not fired


def test_cancel_is_idempotent():
    eng = Engine()
    t = eng.timeout(1.0)
    assert t.cancel() is True
    assert t.cancel() is True
    assert eng.stats()["cancelled_total"] == 1


def test_cancel_after_trigger_raises():
    eng = Engine()
    ev = eng.event()
    ev.succeed(42)
    with pytest.raises(SimulationError):
        ev.cancel()


def test_cancel_after_fire_raises():
    eng = Engine()
    t = eng.timeout(1.0)
    eng.run()
    assert t.processed
    with pytest.raises(SimulationError):
        t.cancel()


def test_cancelled_event_cannot_be_scheduled():
    eng = Engine()
    ev = eng.event()
    ev.cancel()
    with pytest.raises(SimulationError):
        ev.succeed(1)


def test_cancelled_heads_skipped_in_order():
    eng = Engine()
    fired = []
    timers = [eng.timeout(float(i)) for i in range(6)]
    for t in timers:
        t.callbacks.append(lambda ev, t=t: fired.append(timers.index(t)))
    for i in (0, 2, 3, 5):
        timers[i].cancel()
    eng.run()
    assert fired == [1, 4]
    assert eng.now == 4.0


def test_peek_skips_corpses():
    eng = Engine()
    first = eng.timeout(1.0)
    eng.timeout(2.0)
    assert eng.peek() == 1.0
    first.cancel()
    assert eng.peek() == 2.0
    lone = eng.timeout(0.5)
    assert eng.peek() == 0.5
    lone.cancel()
    assert eng.peek() == 2.0


# ----------------------------------------------------------------- census
def test_stats_census_counts():
    eng = Engine()
    live = eng.timeout(5.0)
    dead = [eng.timeout(1.0) for _ in range(10)]
    for t in dead:
        t.cancel()
    s = eng.stats()
    assert s["pending"] == 11
    assert s["dead_pending"] == 10
    assert s["live_pending"] == 1
    assert s["cancelled_total"] == 10
    eng.run()
    assert live.processed
    assert eng.stats()["pending"] == 0
    assert eng.stats()["dead_pending"] == 0


def test_compaction_triggers_when_dead_dominates():
    eng = Engine()
    eng.timeout(10.0)
    doomed = [eng.timeout(5.0) for _ in range(3000)]
    for t in doomed:
        t.cancel()
    # Nothing compacts at cancel time (O(1) cancels)...
    assert eng.stats()["compactions"] == 0
    assert eng.stats()["dead_pending"] == 3000
    # ...but the first pops trip the dead-majority threshold.
    eng.timeout(0.0)
    eng.step()
    eng.step()
    s = eng.stats()
    assert s["compactions"] >= 1
    assert s["dead_pending"] == 0
    assert s["pending"] == 0
    assert eng.now == 10.0


def test_compaction_preserves_live_ordering():
    eng = Engine()
    fired = []
    for i in range(4000):
        t = eng.timeout(float(i % 7) + 1.0, value=i)
        if i % 3 == 0:
            t.callbacks.append(lambda ev: fired.append(ev.value))
        else:
            t.cancel()
    eng.run()
    expected = sorted((i for i in range(4000) if i % 3 == 0),
                      key=lambda i: (float(i % 7) + 1.0, i))
    assert fired == expected
    assert eng.stats()["compactions"] >= 1


# -------------------------------------------------- cancellation downstream
def test_lock_wake_skips_cancelled_waiter():
    from repro.fs.locking import RangeLockTable
    eng = Engine()
    table = RangeLockTable()
    assert table.try_lock_write(1, 0, 100, "a")
    ev_b, ev_c = eng.event(), eng.event()
    table.wait(1, ev_b, 0, 100, owner="b")
    table.wait(1, ev_c, 0, 100, owner="c")
    ev_b.cancel()
    table.unlock_write(1, "a")
    eng.run()
    assert ev_c.processed and ev_c.ok
    assert not ev_b.processed


# ------------------------------------------------------- interrupt regression
def test_interrupt_behind_thousands_of_waiters():
    """Interrupting a process parked on a contended event is O(1):
    the detach must not disturb the other waiters or the event."""
    eng = Engine()
    gate = eng.event()
    woken = []

    def waiter(i):
        yield gate
        woken.append(i)

    def victim():
        try:
            yield gate
        except Exception:  # InterruptError
            woken.append("interrupted")

    n = 5000
    for i in range(n // 2):
        eng.process(waiter(i))
    victim_proc = eng.process(victim())
    for i in range(n // 2, n):
        eng.process(waiter(i))

    def driver():
        yield eng.timeout(1.0)
        victim_proc.interrupt("test")
        yield eng.timeout(1.0)
        gate.succeed("open")

    eng.process(driver())
    eng.run()
    assert woken[0] == "interrupted"
    assert sorted(w for w in woken[1:]) == list(range(n))


def test_interrupt_detach_keeps_condition_events_live():
    """An ``AllOf`` fails on its first failure and detaches from the
    constituents still pending: the slower one stays live for its other
    waiters and no longer holds the ``AllOf`` in its callback list."""
    from repro.sim import AllOf
    eng = Engine()
    bad, slow = eng.event(), eng.timeout(2.0, "slow")
    both = AllOf(eng, [bad, slow])
    seen, caught = [], []
    slow.callbacks.append(lambda ev: seen.append((eng.now, ev.value)))

    def waiter():
        try:
            yield both
        except RuntimeError as err:
            caught.append((eng.now, str(err)))

    eng.process(waiter())
    eng.call_at(1.0, lambda: bad.fail(RuntimeError("x")))
    eng.run(until=1.5)
    assert caught == [(1.0, "x")]
    assert both._check not in slow.callbacks
    eng.run()
    assert seen == [(2.0, "slow")]
