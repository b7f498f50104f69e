"""Tests for the pluggable chunk backends: parity and recovery."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidArgument, NoSpace
from repro.fs import ExtentBackend, LogBackend, ThemisFS, make_backend

CHUNK = 256


class TestFactory:
    def test_kinds(self):
        assert make_backend("extent", 1 << 16, CHUNK).name == "extent"
        assert make_backend("log", 1 << 16, CHUNK).name == "log"

    def test_unknown_rejected(self):
        with pytest.raises(InvalidArgument):
            make_backend("punchcards", 1 << 16, CHUNK)


@pytest.mark.parametrize("kind", ["extent", "log"])
class TestCommonBehaviour:
    def make(self, kind):
        return make_backend(kind, 1 << 20, CHUNK)

    def test_write_read_roundtrip(self, kind):
        backend = self.make(kind)
        backend.write_chunk(1, 0, 10, b"hello")
        assert backend.read_chunk(1, 0, 10, 5) == b"hello"

    def test_unwritten_chunk_is_none(self, kind):
        backend = self.make(kind)
        assert backend.read_chunk(1, 0, 0, 10) is None

    def test_partial_overwrite_preserves_rest(self, kind):
        backend = self.make(kind)
        backend.write_chunk(1, 0, 0, b"a" * 30)
        backend.write_chunk(1, 0, 10, b"B" * 5)
        got = backend.read_chunk(1, 0, 0, 30)
        assert got == b"a" * 10 + b"B" * 5 + b"a" * 15

    def test_drop_file_releases(self, kind):
        backend = self.make(kind)
        backend.write_chunk(1, 0, 0, b"x" * 100)
        backend.write_chunk(1, 1, 0, b"y" * 100)
        backend.write_chunk(2, 0, 0, b"z" * 100)
        assert backend.drop_file(1) > 0
        assert backend.read_chunk(1, 0, 0, 10) is None
        assert backend.read_chunk(2, 0, 0, 3) == b"z" * 3

    def test_used_bytes_positive_after_write(self, kind):
        backend = self.make(kind)
        backend.write_chunk(1, 0, 0, b"x" * 64)
        assert backend.used_bytes > 0


class TestExtentStore:
    """Every extent is one chunk, so the device is a count of chunk
    slots: best fit over equal extents runs out exactly when
    ``capacity // chunk`` are held, and a freed slot fits any chunk."""

    def test_chunk_slots_bound_space_and_count_bytes(self):
        capacity = 5 * CHUNK + CHUNK // 2          # room for 5 chunks
        backend = ExtentBackend(capacity, CHUNK)
        for chunk in range(5):
            backend.write_chunk(1, chunk, 0, b"x")
            assert backend.used_bytes == (chunk + 1) * CHUNK
        backend.write_chunk(1, 4, CHUNK - 1, b"y")  # overwrite: no new slot
        with pytest.raises(NoSpace):
            backend.write_chunk(2, 0, 0, b"z")      # chunk 5 + 1 = 6
        with pytest.raises(InvalidArgument):
            backend.write_chunk(1, 0, CHUNK - 2, b"xyz")
        assert backend.used_bytes == 5 * CHUNK
        assert backend.drop_file(1) == 5 * CHUNK
        assert backend.used_bytes == 0
        for chunk in range(5):
            backend.write_chunk(2, chunk, 0, b"z")  # the slots are free
        assert backend.read_chunk(2, 4, 0, 2) == b"z\0"


class TestLogBackendRecovery:
    def test_crash_recover_preserves_chunks(self):
        backend = LogBackend(1 << 20, CHUNK)
        backend.write_chunk(7, 0, 0, b"alpha")
        backend.write_chunk(7, 3, 64, b"beta")
        backend.crash()
        assert backend.read_chunk(7, 0, 0, 5) is None
        report = backend.recover()
        assert report.live_keys == 2
        assert backend.read_chunk(7, 0, 0, 5) == b"alpha"
        assert backend.read_chunk(7, 3, 64, 4) == b"beta"

    def test_write_outside_chunk_rejected(self):
        backend = LogBackend(1 << 20, CHUNK)
        with pytest.raises(InvalidArgument):
            backend.write_chunk(1, 0, CHUNK - 2, b"xyz")

    def test_drop_file_survives_recovery(self):
        backend = LogBackend(1 << 20, CHUNK)
        backend.write_chunk(1, 0, 0, b"data")
        backend.drop_file(1)
        backend.crash()
        backend.recover()
        assert backend.read_chunk(1, 0, 0, 4) is None


class TestLogBackendCopySemantics:
    """A whole-chunk write stores the caller's bytes, copied only when
    the caller could still change them; a partial one merges."""

    def test_whole_chunk_bytes_held_by_reference(self):
        backend = LogBackend(1 << 20, CHUNK)
        data = bytes(range(256))
        backend.write_chunk(1, 0, 0, data)
        assert backend.store.read((1, 0)) is data
        assert backend.read_chunk(1, 0, 0, CHUNK) == data

    @pytest.mark.parametrize("wrap", [bytearray, memoryview])
    def test_whole_chunk_mutable_buffer_copied(self, wrap):
        backend = LogBackend(1 << 20, CHUNK)
        buf = bytearray(b"a" * CHUNK)
        backend.write_chunk(1, 0, 0, wrap(buf))
        buf[:] = b"z" * CHUNK
        assert backend.read_chunk(1, 0, 0, CHUNK) == b"a" * CHUNK

    def test_partial_chunk_merges_with_previous_version(self):
        backend = LogBackend(1 << 20, CHUNK)
        first = b"a" * CHUNK
        backend.write_chunk(1, 0, 0, first)
        backend.write_chunk(1, 0, 8, bytearray(b"B" * 4))
        assert backend.read_chunk(1, 0, 0, CHUNK) == (
            b"a" * 8 + b"B" * 4 + b"a" * (CHUNK - 12))
        assert first == b"a" * CHUNK
        backend.write_chunk(1, 0, 0, b"c" * CHUNK)  # whole chunk replaces
        assert backend.read_chunk(1, 0, 0, CHUNK) == b"c" * CHUNK

    @pytest.mark.parametrize("wrap", [bytearray, memoryview])
    def test_fs_write_of_a_mutable_buffer_is_copied(self, wrap):
        fs = ThemisFS(["a", "b"], capacity_per_server=1 << 20,
                      stripe_size=CHUNK, default_stripe_count=2,
                      storage_backend="log")
        fs.create("/f")
        buf = bytearray(bytes(range(256)) * 3)
        fs.write("/f", 0, wrap(buf))
        buf[:] = bytes(len(buf))
        assert fs.read("/f", 0, len(buf)) == bytes(range(256)) * 3


class TestThemisFSBackendIntegration:
    @pytest.mark.parametrize("kind", ["extent", "log"])
    def test_fs_roundtrip_per_backend(self, kind):
        fs = ThemisFS(["a", "b"], capacity_per_server=1 << 20,
                      stripe_size=64, default_stripe_count=2,
                      storage_backend=kind)
        fs.mkdir("/fs")
        fs.create("/fs/f")
        data = bytes(range(200))
        fs.write("/fs/f", 0, data)
        assert fs.read("/fs/f", 0, 200) == data

    def test_unknown_backend_rejected(self):
        with pytest.raises(InvalidArgument):
            ThemisFS(["a"], capacity_per_server=1 << 20,
                     storage_backend="tape")


@settings(max_examples=30)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3),
                          st.integers(0, CHUNK - 32),
                          st.binary(min_size=1, max_size=32)),
                min_size=1, max_size=25))
def test_property_backends_agree(writes):
    """The extent and log backends expose identical read results for any
    interleaving of chunk writes (with a crash/recover thrown at the log)."""
    extent = ExtentBackend(1 << 22, CHUNK)
    log = LogBackend(1 << 22, CHUNK)
    for ino, chunk, offset, data in writes:
        extent.write_chunk(ino, chunk, offset, data)
        log.write_chunk(ino, chunk, offset, data)
    log.crash()
    log.recover()
    for ino in range(3):
        for chunk in range(4):
            a = extent.read_chunk(ino, chunk, 0, CHUNK)
            b = log.read_chunk(ino, chunk, 0, CHUNK)
            assert a == b, (ino, chunk)
