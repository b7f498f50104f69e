"""Tests for the log-structured store: append semantics, GC, crash recovery."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FSError, InvalidArgument, NoSpace
from repro.fs import LogStructuredStore


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


@settings(max_examples=40)
@given(st.lists(
    st.tuples(st.integers(0, 5),             # key
              st.one_of(st.none(), st.binary(min_size=1, max_size=64))),
    min_size=1, max_size=40),
    st.integers(0, 40))
def test_property_crash_recovery_equals_committed_state(ops, crash_at):
    """Apply random writes/deletes, crash at an arbitrary point, recover:
    the store must equal the state of everything applied before the crash."""
    store = LogStructuredStore(1 << 16, segment_size=1 << 11)
    reference = {}
    crash_at = min(crash_at, len(ops))
    for key, value in ops[:crash_at]:
        if value is None:
            store.delete(key)
            reference.pop(key, None)
        else:
            store.write(key, value)
            reference[key] = value
    store.crash()
    store.recover()
    assert store.keys() == set(reference)
    for key, value in reference.items():
        assert store.read(key) == value
