"""Integration-level tests of the distributed ThemisFS."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (DirectoryNotEmpty, FileExists, FileNotFound,
                          InvalidArgument, IsADirectory, NotADirectory)
from repro.fs import FileType, ThemisFS


def make_fs(n_servers=3, stripe_count=1, stripe_size=64, capacity=1 << 20):
    return ThemisFS([f"bb{i}" for i in range(n_servers)],
                    capacity_per_server=capacity,
                    stripe_size=stripe_size,
                    default_stripe_count=stripe_count)


class TestNamespaceOps:
    def test_mkdir_and_readdir(self):
        fs = make_fs()
        fs.mkdir("/fs")
        fs.mkdir("/fs/data")
        fs.create("/fs/data/a.dat")
        fs.create("/fs/data/b.dat")
        assert fs.readdir("/fs/data") == ["a.dat", "b.dat"]
        assert fs.readdir("/fs") == ["data"]

    def test_makedirs(self):
        fs = make_fs()
        fs.makedirs("/fs/a/b/c")
        assert fs.stat("/fs/a/b/c").is_dir
        fs.makedirs("/fs/a/b/c")  # idempotent

    def test_create_requires_parent(self):
        fs = make_fs()
        with pytest.raises(FileNotFound):
            fs.create("/nodir/file")

    def test_create_duplicate_rejected(self):
        fs = make_fs()
        fs.mkdir("/fs")
        fs.create("/fs/x")
        with pytest.raises(FileExists):
            fs.create("/fs/x")

    def test_parent_must_be_directory(self):
        fs = make_fs()
        fs.mkdir("/fs")
        fs.create("/fs/file")
        with pytest.raises(NotADirectory):
            fs.create("/fs/file/child")

    def test_stat_file_and_dir(self):
        fs = make_fs()
        fs.mkdir("/fs")
        fs.create("/fs/f")
        assert fs.stat("/fs/f").ftype is FileType.FILE
        assert fs.stat("/fs").ftype is FileType.DIRECTORY

    def test_stat_missing_raises(self):
        fs = make_fs()
        with pytest.raises(FileNotFound):
            fs.stat("/ghost")

    def test_unlink(self):
        fs = make_fs()
        fs.mkdir("/fs")
        fs.create("/fs/f")
        fs.write("/fs/f", 0, b"x" * 200)
        fs.unlink("/fs/f")
        assert not fs.exists("/fs/f")
        assert sum(fs.used_bytes().values()) == 0

    def test_unlink_directory_rejected(self):
        fs = make_fs()
        fs.mkdir("/fs")
        with pytest.raises(IsADirectory):
            fs.unlink("/fs")

    def test_rmdir(self):
        fs = make_fs()
        fs.mkdir("/fs")
        fs.mkdir("/fs/d")
        fs.rmdir("/fs/d")
        assert not fs.exists("/fs/d")

    def test_rmdir_nonempty_rejected(self):
        fs = make_fs()
        fs.mkdir("/fs")
        fs.create("/fs/f")
        with pytest.raises(DirectoryNotEmpty):
            fs.rmdir("/fs")

    def test_rmdir_root_rejected(self):
        fs = make_fs()
        with pytest.raises(InvalidArgument):
            fs.rmdir("/")

    def test_dir_size_reflects_entries(self):
        fs = make_fs()
        fs.mkdir("/fs")
        empty = fs.stat("/fs").size
        fs.create("/fs/somefile")
        assert fs.stat("/fs").size > empty


class TestDataPath:
    def test_write_read_roundtrip(self):
        fs = make_fs()
        fs.mkdir("/fs")
        fs.create("/fs/f")
        data = bytes(range(256)) * 4
        fs.write("/fs/f", 0, data)
        assert fs.read("/fs/f", 0, len(data)) == data
        assert fs.stat("/fs/f").size == len(data)

    def test_striped_roundtrip_across_servers(self):
        fs = make_fs(n_servers=4, stripe_count=3, stripe_size=50)
        fs.mkdir("/fs")
        fs.create("/fs/big")
        data = bytes((i * 7) % 256 for i in range(500))
        fs.write("/fs/big", 0, data)
        assert fs.read("/fs/big", 0, 500) == data
        # Data actually landed on 3 distinct servers.
        used = [v for v in fs.used_bytes().values() if v > 0]
        assert len(used) == 3

    def test_partial_overwrite(self):
        fs = make_fs(stripe_size=10)
        fs.mkdir("/fs")
        fs.create("/fs/f")
        fs.write("/fs/f", 0, b"a" * 30)
        fs.write("/fs/f", 5, b"B" * 10)
        assert fs.read("/fs/f", 0, 30) == b"a" * 5 + b"B" * 10 + b"a" * 15

    def test_read_past_eof_is_short(self):
        fs = make_fs()
        fs.mkdir("/fs")
        fs.create("/fs/f")
        fs.write("/fs/f", 0, b"12345")
        assert fs.read("/fs/f", 3, 100) == b"45"
        assert fs.read("/fs/f", 10, 5) == b""

    def test_sparse_hole_reads_zero(self):
        fs = make_fs(stripe_size=10)
        fs.mkdir("/fs")
        fs.create("/fs/f")
        fs.write("/fs/f", 25, b"Z")
        got = fs.read("/fs/f", 0, 26)
        assert got == b"\x00" * 25 + b"Z"

    def test_io_on_directory_rejected(self):
        fs = make_fs()
        fs.mkdir("/fs")
        with pytest.raises(IsADirectory):
            fs.write("/fs", 0, b"x")
        with pytest.raises(IsADirectory):
            fs.read("/fs", 0, 1)

    def test_negative_offset_rejected(self):
        fs = make_fs()
        fs.mkdir("/fs")
        fs.create("/fs/f")
        with pytest.raises(InvalidArgument):
            fs.write("/fs/f", -1, b"x")

    def test_mtime_advances_with_clock(self):
        t = {"now": 0.0}
        fs = ThemisFS(["s0"], capacity_per_server=1 << 20, clock=lambda: t["now"])
        fs.mkdir("/fs")
        fs.create("/fs/f")
        t["now"] = 5.0
        fs.write("/fs/f", 0, b"x")
        assert fs.stat("/fs/f").mtime == 5.0


@pytest.mark.parametrize("backend", ["extent", "log"])
class TestTruncate:
    """POSIX ``truncate`` on 16-byte stripes over two servers."""

    def fs(self, backend):
        fs = ThemisFS(["a", "b"], capacity_per_server=1 << 20,
                      stripe_size=16, default_stripe_count=2,
                      storage_backend=backend)
        fs.create("/f")
        return fs

    def test_shrink_discards_the_tail(self, backend):
        fs = self.fs(backend)
        fs.write("/f", 0, b"ABCDEFGHIJ")
        fs.truncate("/f", 4)
        assert fs.stat("/f").size == 4
        fs.write("/f", 8, b"xy")    # was: ABCDEFGHxy
        assert fs.read("/f", 0, 10) == b"ABCD\0\0\0\0xy"

    def test_shrink_across_servers_then_grow_reads_zeros(self, backend):
        fs = self.fs(backend)
        fs.write("/f", 0, bytes(range(1, 41)))    # chunks on a, b, a
        fs.truncate("/f", 5)
        fs.truncate("/f", 40)
        assert fs.read("/f", 0, 40) == bytes(range(1, 6)) + bytes(35)

    def test_grow_extends_with_a_hole(self, backend):
        fs = self.fs(backend)
        fs.write("/f", 0, b"ABCDEFGHIJ")
        fs.truncate("/f", 20)       # was: size stays 10
        assert fs.stat("/f").size == 20
        assert fs.read("/f", 0, 30) == b"ABCDEFGHIJ" + bytes(10)

    def test_shrink_leaves_holes_unallocated(self, backend):
        fs = self.fs(backend)
        fs.write_accounting("/f", 0, 64)
        fs.write("/f", 0, b"x")
        fs.truncate("/f", 1)
        assert not any(node.backend.has_chunk(fs.lookup("/f").ino, c)
                       for node in fs.nodes.values() for c in (1, 2, 3))

    def test_shrink_rebuilds_erasure_parity(self, backend):
        fs = ThemisFS(["a", "b", "c"], capacity_per_server=1 << 20,
                      stripe_size=16, storage_backend=backend,
                      erasure=(2, 3))
        fs.create("/e")
        fs.write("/e", 0, bytes(range(1, 33)))     # one group: a, b + parity
        fs.truncate("/e", 5)
        fs.truncate("/e", 32)
        for down in ("a", "b", "c"):
            data, info = fs.read_reconstruct("/e", 0, 32, {down})
            assert data == bytes(range(1, 6)) + bytes(27), down
            assert info["lost_bytes"] == 0


class TestPlacement:
    def test_metadata_server_deterministic(self):
        fs = make_fs(n_servers=4)
        assert fs.metadata_server("/fs/a") == fs.metadata_server("/fs/a")

    def test_files_spread_across_servers(self):
        fs = make_fs(n_servers=4)
        fs.mkdir("/fs")
        owners = {fs.metadata_server(f"/fs/file-{i}") for i in range(64)}
        assert len(owners) >= 3  # not all on one server


@settings(max_examples=25)
@given(st.lists(
    st.tuples(st.integers(min_value=0, max_value=300), st.binary(min_size=1, max_size=80)),
    min_size=1, max_size=12))
def test_property_fs_matches_reference_buffer(writes):
    """Arbitrary striped writes then full read-back equals a flat reference."""
    fs = ThemisFS(["a", "b", "c"], capacity_per_server=1 << 20,
                  stripe_size=37, default_stripe_count=3)
    fs.mkdir("/fs")
    fs.create("/fs/f")
    ref = bytearray()
    for offset, data in writes:
        fs.write("/fs/f", offset, data)
        if len(ref) < offset + len(data):
            ref.extend(b"\x00" * (offset + len(data) - len(ref)))
        ref[offset:offset + len(data)] = data
    assert fs.read("/fs/f", 0, len(ref)) == bytes(ref)
    assert fs.stat("/fs/f").size == len(ref)
