"""Tests for the log-structured store: append semantics, GC, crash recovery."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FSError, InvalidArgument, NoSpace
from repro.fs import LogStructuredStore
from repro.fs.logstore import HEADER_BYTES


def make(capacity=1 << 16, segment_size=1 << 12, **kw):
    return LogStructuredStore(capacity, segment_size=segment_size, **kw)


class TestBasics:
    def test_write_read_roundtrip(self):
        store = make()
        store.write(("f", 0), b"hello")
        assert store.read(("f", 0)) == b"hello"

    def test_missing_key_is_none(self):
        assert make().read("ghost") is None

    def test_overwrite_returns_newest(self):
        store = make()
        store.write("k", b"v1")
        store.write("k", b"v2")
        assert store.read("k") == b"v2"

    def test_delete_tombstones(self):
        store = make()
        store.write("k", b"v")
        assert store.delete("k") is True
        assert store.read("k") is None
        assert "k" not in store
        assert store.delete("k") is False

    def test_keys(self):
        store = make()
        store.write("a", b"1")
        store.write("b", b"2")
        store.delete("a")
        assert store.keys() == {"b"}

    def test_non_bytes_rejected(self):
        with pytest.raises(InvalidArgument):
            make().write("k", "not bytes")

    def test_oversized_record_rejected(self):
        store = make(segment_size=128)
        with pytest.raises(InvalidArgument):
            store.write("k", b"x" * 256)

    @pytest.mark.parametrize("capacity, held", [
        (1 << 16, [100]),          # the open head still has room
        (1 << 13, [3000, 3000]),   # sealing the head would force a GC
    ])
    def test_oversized_record_rejected_before_any_side_effect(
            self, capacity, held):
        store = make(capacity=capacity)
        for i, length in enumerate(held):
            store.write(i, b"h" * length)
        before = (store.segment_count, store.used_bytes, store.live_bytes,
                  store.gc_runs, store._head, len(store._head.records))
        with pytest.raises(InvalidArgument):
            store.write("big", b"x" * 5000)
        assert (store.segment_count, store.used_bytes, store.live_bytes,
                store.gc_runs, store._head,
                len(store._head.records)) == before
        assert not store._head.sealed
        assert store.read(len(held) - 1) == b"h" * held[-1]

    def test_invalid_geometry(self):
        with pytest.raises(FSError):
            LogStructuredStore(0)
        with pytest.raises(FSError):
            LogStructuredStore(100, segment_size=200)
        with pytest.raises(FSError):
            LogStructuredStore(100, segment_size=60)  # < 2 segments


class TestSegments:
    def test_segments_roll_when_full(self):
        store = make(capacity=1 << 14, segment_size=1 << 10)
        for i in range(20):
            store.write(("f", i), b"x" * 200)
        assert store.segment_count > 1

    def test_live_bytes_tracks_newest_versions_only(self):
        store = make()
        store.write("k", b"a" * 100)
        first_live = store.live_bytes
        store.write("k", b"b" * 100)
        assert store.live_bytes == first_live

    def test_superseded_record_keeps_header_drops_payload(self):
        store = make()
        store.write("k", b"a" * 100)
        store.write("k", b"b" * 50)
        store.delete("k")
        old, new, tomb = store._head.records
        assert (old.key, old.seq, old.length, old.data) == ("k", 1, 100, None)
        assert (new.seq, new.length, new.data) == (2, 50, None)
        assert tomb.tombstone and tomb.length == 0
        assert store.used_bytes == 3 * HEADER_BYTES + 150
        assert store.live_bytes == 0


class TestGC:
    def test_gc_reclaims_dead_segments(self):
        store = make(capacity=1 << 14, segment_size=1 << 10)
        for i in range(12):
            store.write("hot", b"z" * 500)  # every write obsoletes the last
        used_before = store.used_bytes
        reclaimed = store.gc()
        assert reclaimed > 0
        assert store.used_bytes < used_before
        assert store.read("hot") == b"z" * 500  # live data preserved

    def test_gc_automatic_when_log_fills(self):
        store = make(capacity=1 << 13, segment_size=1 << 10)
        # Far more bytes written than capacity; only one key stays live.
        for i in range(200):
            store.write("k", b"w" * 400)
        assert store.gc_runs > 0
        assert store.read("k") == b"w" * 400

    def test_log_full_of_live_data_raises(self):
        store = make(capacity=1 << 12, segment_size=1 << 10,
                     gc_live_threshold=0.0)
        with pytest.raises(NoSpace):
            for i in range(100):
                store.write(("k", i), b"l" * 500)  # all live, no GC help

    def test_gc_keeps_tombstone_shadowing_a_surviving_version(self):
        """A deleted key's old record survives in a mostly-live segment
        while its tombstone's segment is cleaned: the tombstone moves to
        the head, so recovery does not bring the key back."""
        store = make(capacity=1 << 14, segment_size=1 << 10)
        store.write("k", b"a" * 100)
        for i in range(7):
            store.write(("live", i), b"x" * 100)
        store.delete("k")
        for i in range(8):
            store.write("hot", b"h" * 100)
        assert store.gc() > 0
        store.crash()
        report = store.recover()
        assert "k" not in store and store.read("k") is None
        assert report.live_keys == 8
        assert store.read("hot") == b"h" * 100


class TestRecovery:
    def test_crash_loses_index_recover_rebuilds(self):
        store = make()
        store.write("a", b"1")
        store.write("b", b"2")
        store.write("a", b"3")
        store.delete("b")
        store.crash()
        assert store.read("a") is None  # index gone
        report = store.recover()
        assert store.read("a") == b"3"
        assert store.read("b") is None
        assert report.live_keys == 1
        assert report.tombstones == 1
        assert report.records_scanned == 4

    def test_recovery_across_sealed_segments(self):
        store = make(capacity=1 << 14, segment_size=1 << 10)
        for i in range(30):
            store.write(("f", i % 5), bytes([i]) * 100)
        expect = {("f", k): store.read(("f", k)) for k in range(5)}
        store.crash()
        store.recover()
        for key, value in expect.items():
            assert store.read(key) == value

    def test_tombstone_not_resurrected(self):
        store = make()
        store.write("k", b"old")
        store.delete("k")
        store.crash()
        store.recover()
        assert store.read("k") is None

    def test_recovery_is_idempotent(self):
        store = make()
        store.write("k", b"v")
        store.recover()
        store.recover()
        assert store.read("k") == b"v"


def _records(store):
    """Every record of every segment, the open head's included."""
    segments = store.segments + ([store._head] if store._head else [])
    return [rec for seg in segments for rec in seg.records]


@settings(max_examples=40)
@given(st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.integers(0, 5),
                  st.binary(min_size=1, max_size=400)),
        st.tuples(st.just("delete"), st.integers(0, 5)),
        st.tuples(st.just("gc")),
        st.tuples(st.just("crash"))),
    min_size=1, max_size=60))
def test_property_crash_recovery_equals_committed_state(ops):
    """Apply random writes, deletes, GC passes and crash + recover cycles,
    then crash once more: after every step the store equals everything
    applied so far, and the payload bytes its segments still reference
    are exactly the live keys' payloads (a superseded record holds none)."""
    store = LogStructuredStore(1 << 14, segment_size=1 << 11)
    reference = {}

    def check_payloads():
        records = _records(store)
        assert (sum(len(rec.data) for rec in records if rec.data is not None)
                == sum(map(len, reference.values())))
        assert store.used_bytes == sum(rec.size for rec in records)

    def check_state():
        check_payloads()
        assert store.keys() == set(reference)
        for key, value in reference.items():
            assert store.read(key) == value
        assert store.live_bytes == sum(HEADER_BYTES + len(value)
                                       for value in reference.values())

    def crash_and_recover():
        used = store.used_bytes
        store.crash()
        check_payloads()
        report = store.recover()
        records = _records(store)
        assert report.segments_scanned == store.segment_count
        assert report.records_scanned == len(records)
        assert report.tombstones == sum(rec.tombstone for rec in records)
        assert report.live_keys == len(reference)
        assert store.used_bytes == used
        check_state()

    for op in ops:
        if op[0] == "write":
            store.write(op[1], op[2])
            reference[op[1]] = op[2]
        elif op[0] == "delete":
            assert store.delete(op[1]) == (op[1] in reference)
            reference.pop(op[1], None)
        elif op[0] == "gc":
            store.gc()
        else:
            crash_and_recover()
        check_state()
    crash_and_recover()
