"""Tests for Store, PriorityStore, Resource, and BandwidthPipe."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import BandwidthPipe, Engine, PriorityStore, Resource, Store


@pytest.fixture
def eng():
    return Engine()


class TestStore:
    def test_fifo_order(self, eng):
        store = Store(eng)
        got = []

        def producer():
            for i in range(3):
                yield store.put(i)

        def consumer():
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        eng.process(producer())
        eng.process(consumer())
        eng.run()
        assert got == [0, 1, 2]

    def test_get_blocks_until_put(self, eng):
        store = Store(eng)
        got = []

        def consumer():
            item = yield store.get()
            got.append((eng.now, item))

        def producer():
            yield eng.timeout(2.0)
            yield store.put("x")

        eng.process(consumer())
        eng.process(producer())
        eng.run()
        assert got == [(pytest.approx(2.0), "x")]

    def test_bounded_put_blocks_when_full(self, eng):
        store = Store(eng, capacity=1)
        trail = []

        def producer():
            yield store.put("a")
            trail.append(("a", eng.now))
            yield store.put("b")
            trail.append(("b", eng.now))

        def consumer():
            yield eng.timeout(5.0)
            yield store.get()

        eng.process(producer())
        eng.process(consumer())
        eng.run()
        assert trail == [("a", pytest.approx(0.0)), ("b", pytest.approx(5.0))]

    def test_try_get_nonblocking(self, eng):
        store = Store(eng)
        assert store.try_get() is None
        store.put("v")
        eng.run()
        assert store.try_get() == "v"
        assert store.try_get() is None

    def test_capacity_must_be_positive(self, eng):
        with pytest.raises(SimulationError):
            Store(eng, capacity=0)

    def test_len_counts_items(self, eng):
        store = Store(eng)
        store.put(1)
        store.put(2)
        eng.run()
        assert len(store) == 2


class TestPriorityStore:
    def test_get_returns_smallest(self, eng):
        store = PriorityStore(eng)
        got = []

        def run():
            yield store.put((3, "c"))
            yield store.put((1, "a"))
            yield store.put((2, "b"))
            for _ in range(3):
                item = yield store.get()
                got.append(item[1])

        eng.process(run())
        eng.run()
        assert got == ["a", "b", "c"]

    def test_try_get_pops_min(self, eng):
        store = PriorityStore(eng)
        store.put((5, "z"))
        store.put((1, "a"))
        eng.run()
        assert store.try_get() == (1, "a")


class TestResource:
    def test_exclusive_access_serialises(self, eng):
        res = Resource(eng, capacity=1)
        trail = []

        def user(tag, hold):
            req = res.request()
            yield req
            trail.append((tag, "in", eng.now))
            yield eng.timeout(hold)
            res.release(req)
            trail.append((tag, "out", eng.now))

        eng.process(user("A", 2.0))
        eng.process(user("B", 1.0))
        eng.run()
        assert trail == [
            ("A", "in", pytest.approx(0.0)),
            ("A", "out", pytest.approx(2.0)),
            ("B", "in", pytest.approx(2.0)),
            ("B", "out", pytest.approx(3.0)),
        ]

    def test_capacity_allows_concurrency(self, eng):
        res = Resource(eng, capacity=2)
        starts = []

        def user(tag):
            req = res.request()
            yield req
            starts.append((tag, eng.now))
            yield eng.timeout(1.0)
            res.release(req)

        for tag in "abc":
            eng.process(user(tag))
        eng.run()
        assert starts == [
            ("a", pytest.approx(0.0)),
            ("b", pytest.approx(0.0)),
            ("c", pytest.approx(1.0)),
        ]

    def test_release_without_hold_raises(self, eng):
        res = Resource(eng)
        stray = eng.event()
        with pytest.raises(SimulationError):
            res.release(stray)

    def test_count_and_queued(self, eng):
        res = Resource(eng, capacity=1)
        r1 = res.request()
        res.request()
        assert res.count == 1
        assert res.queued == 1
        res.release(r1)
        assert res.count == 1  # waiter promoted
        assert res.queued == 0


class TestBandwidthPipe:
    def test_transfer_time_is_size_over_rate(self, eng):
        pipe = BandwidthPipe(eng, rate=100.0)
        done_at = []

        def proc():
            yield pipe.transfer(250.0)
            done_at.append(eng.now)

        eng.process(proc())
        eng.run()
        assert done_at == [pytest.approx(2.5)]

    def test_transfers_serialise(self, eng):
        pipe = BandwidthPipe(eng, rate=100.0)
        done = []

        def proc(tag, size):
            yield pipe.transfer(size)
            done.append((tag, eng.now))

        eng.process(proc("first", 100.0))
        eng.process(proc("second", 100.0))
        eng.run()
        assert done == [("first", pytest.approx(1.0)), ("second", pytest.approx(2.0))]

    def test_latency_added_after_serialisation(self, eng):
        pipe = BandwidthPipe(eng, rate=100.0, latency=0.5)
        done = []

        def proc():
            yield pipe.transfer(100.0)
            done.append(eng.now)

        eng.process(proc())
        eng.run()
        assert done == [pytest.approx(1.5)]

    def test_idle_pipe_restarts_from_now(self, eng):
        pipe = BandwidthPipe(eng, rate=100.0)
        done = []

        def proc():
            yield pipe.transfer(100.0)
            yield eng.timeout(10.0)  # pipe idles
            yield pipe.transfer(100.0)
            done.append(eng.now)

        eng.process(proc())
        eng.run()
        assert done == [pytest.approx(12.0)]

    def test_eta_matches_actual_completion(self, eng):
        pipe = BandwidthPipe(eng, rate=50.0, latency=0.1)
        eta = pipe.eta(100.0)
        done = []

        def proc():
            yield pipe.transfer(100.0)
            done.append(eng.now)

        eng.process(proc())
        eng.run()
        assert done == [pytest.approx(eta)]

    def test_bytes_moved_accumulates(self, eng):
        pipe = BandwidthPipe(eng, rate=10.0)
        pipe.transfer(30.0)
        pipe.transfer(20.0)
        assert pipe.bytes_moved == 50

    def test_invalid_parameters(self, eng):
        with pytest.raises(SimulationError):
            BandwidthPipe(eng, rate=0.0)
        with pytest.raises(SimulationError):
            BandwidthPipe(eng, rate=1.0, latency=-1.0)
        pipe = BandwidthPipe(eng, rate=1.0)
        with pytest.raises(SimulationError):
            pipe.transfer(-5.0)


def test_pipe_reserve_is_the_time_transfer_fires_at():
    eng = Engine(start=0.7)
    reserved, fired = BandwidthPipe(eng, rate=3.0, latency=0.1), \
        BandwidthPipe(eng, rate=3.0, latency=0.1)
    times = []
    for nbytes in (1, 10, 0):
        when = reserved.reserve(nbytes)
        fired.transfer(nbytes).callbacks.append(
            lambda _ev, when=when: times.append((eng.now, when)))
    eng.run()
    assert len(times) == 3 and all(now == when for now, when in times)
    assert reserved.bytes_moved == fired.bytes_moved == 11
    assert reserved.busy_until == fired.busy_until
    with pytest.raises(SimulationError):
        reserved.reserve(-1)


@given(st.lists(st.tuples(
    st.one_of(st.just(0.0), st.floats(1e-9, 1e-2)),          # gap before it
    st.one_of(st.sampled_from([0, 1, 64, 8 * 10 ** 6]),
              st.integers(0, 10 ** 9))), min_size=1, max_size=30))
# now + (free_at - now) alone puts the last reservation (0 bytes, 1e-7 s
# after the 8 MB one) at 3.3e-4 against 3.3000000000000005e-4.
@example([(1e-5, 8 * 10 ** 6), (1e-7, 0)])
def test_pipe_reserve_never_goes_backwards(sequence):
    eng = Engine()
    pipe = BandwidthPipe(eng, rate=25e9)
    reserved = []

    def reserver():
        for gap, nbytes in sequence:
            if gap:
                yield eng.timeout(gap)
            reserved.append(pipe.reserve(nbytes))
            assert reserved[-1] >= eng.now

    eng.process(reserver())
    eng.run()
    assert reserved == sorted(reserved)


def test_store_put_nowait_schedules_only_the_getter():
    eng = Engine()
    store = Store(eng)
    got = []

    def getter():
        for _ in range(2):
            got.append((yield store.get()))

    eng.process(getter())
    eng.run()
    before = eng.stats()["scheduled_total"]
    store.put_nowait("a")        # wakes the parked getter: one event
    store.put_nowait("b")        # no getter parked: queued, no event
    assert eng.stats()["scheduled_total"] == before + 1
    eng.run()
    assert got == ["a", "b"]


def test_store_put_nowait_needs_room():
    eng = Engine()
    store = Store(eng, capacity=1)
    store.put_nowait("a")
    with pytest.raises(SimulationError):
        store.put_nowait("b")


def test_priority_store_put_nowait_keeps_heap_order():
    eng = Engine()
    store = PriorityStore(eng)
    for item in (3, 1, 2):
        store.put_nowait(item)
    assert [store.try_get() for _ in range(3)] == [1, 2, 3]
