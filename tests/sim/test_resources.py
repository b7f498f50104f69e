"""Tests for BandwidthPipe, and for the Store the dispatcher oracle in
``tests/ucx/test_progress_oracle.py`` is built on (it lived in
``repro.sim`` until the fabric's inbox stopped being one)."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import BandwidthPipe, Engine
from tests.ucx.test_progress_oracle import Store


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


class TestBandwidthPipe:
    def test_transfer_time_is_size_over_rate(self, eng):
        pipe = BandwidthPipe(eng, rate=100.0)
        assert pipe.reserve(250.0) == pytest.approx(2.5)

    def test_transfers_serialise(self, eng):
        pipe = BandwidthPipe(eng, rate=100.0)
        assert pipe.reserve(100.0) == pytest.approx(1.0)
        assert pipe.reserve(100.0) == pytest.approx(2.0)

    def test_latency_added_after_serialisation(self, eng):
        pipe = BandwidthPipe(eng, rate=100.0, latency=0.5)
        assert pipe.reserve(100.0) == pytest.approx(1.5)
        # ... per transfer, not to the pipe's own drain time.
        assert pipe.reserve(100.0) == pytest.approx(2.5)

    def test_idle_pipe_restarts_from_now(self, eng):
        pipe = BandwidthPipe(eng, rate=100.0)
        assert pipe.reserve(100.0) == pytest.approx(1.0)
        eng.run(until=11.0)  # pipe idles
        assert pipe.reserve(100.0) == pytest.approx(12.0)

    def test_bytes_moved_accumulates(self, eng):
        pipe = BandwidthPipe(eng, rate=10.0)
        pipe.reserve(30.0)
        pipe.reserve(20.0)
        assert pipe.bytes_moved == 50

    def test_invalid_parameters(self, eng):
        with pytest.raises(SimulationError):
            BandwidthPipe(eng, rate=0.0)
        with pytest.raises(SimulationError):
            BandwidthPipe(eng, rate=1.0, latency=-1.0)
        pipe = BandwidthPipe(eng, rate=1.0)
        with pytest.raises(SimulationError):
            pipe.reserve(-5.0)


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
