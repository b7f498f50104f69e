"""Tests for namespace journaling and full-FS crash recovery."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fs import JournaledFS


def make_fs(backend="log", servers=("a", "b")):
    fs = JournaledFS(list(servers), capacity_per_server=1 << 22,
                     stripe_size=128, default_stripe_count=2,
                     storage_backend=backend)
    fs.mkdir("/fs")
    return fs


class TestJournaling:
    def test_mutations_are_logged(self):
        fs = make_fs()
        fs.mkdir("/fs/d")
        fs.create("/fs/d/f")
        fs.write("/fs/d/f", 0, b"xyz")
        fs.unlink("/fs/d/f")
        fs.rmdir("/fs/d")
        ops = [r.op for r in fs.journal.records]
        assert ops == ["mkdir", "mkdir", "create", "extend", "unlink", "rmdir"]

    def test_checkpoint_compacts(self):
        fs = make_fs()
        for i in range(5):
            fs.create(f"/fs/f{i}")
        fs.journal.take_checkpoint(fs)
        assert len(fs.journal.records) == 0
        assert fs.journal.checkpoint is not None
        assert fs.journal.checkpoints_taken == 1


class TestRecovery:
    def test_namespace_and_data_survive_crash(self):
        fs = make_fs()
        fs.mkdir("/fs/run")
        fs.create("/fs/run/out")
        payload = bytes(range(256)) * 3
        fs.write("/fs/run/out", 0, payload)
        ino_before = fs.lookup("/fs/run/out").ino

        fs.crash()
        assert not fs.exists("/fs/run/out")
        stats = fs.recover()
        assert stats["applied"] > 0
        assert fs.exists("/fs/run/out")
        assert fs.lookup("/fs/run/out").ino == ino_before  # stable inos
        assert fs.read("/fs/run/out", 0, len(payload)) == payload
        assert fs.readdir("/fs/run") == ["out"]

    def test_recovery_from_checkpoint_plus_tail(self):
        fs = make_fs()
        fs.create("/fs/before")
        fs.write("/fs/before", 0, b"old")
        fs.journal.take_checkpoint(fs)
        fs.create("/fs/after")
        fs.write("/fs/after", 0, b"new")

        fs.crash()
        fs.recover()
        assert fs.read("/fs/before", 0, 3) == b"old"
        assert fs.read("/fs/after", 0, 3) == b"new"

    def test_deletions_replay(self):
        fs = make_fs()
        fs.create("/fs/gone")
        fs.unlink("/fs/gone")
        fs.crash()
        fs.recover()
        assert not fs.exists("/fs/gone")

    def test_truncate_replays(self):
        fs = make_fs()
        fs.create("/fs/t")
        fs.write("/fs/t", 0, b"x" * 300)
        fs.truncate("/fs/t", 0)
        fs.crash()
        fs.recover()
        assert fs.stat("/fs/t").size == 0

    def test_truncate_replays_the_recorded_size(self):
        # Replay installs the size a truncate set, grow or shrink (it
        # once replayed a truncate as min(current, recorded)).
        fs = make_fs()
        fs.create("/fs/grown")
        fs.write("/fs/grown", 0, b"ABCDEFGHIJ")
        fs.truncate("/fs/grown", 20)
        fs.create("/fs/cut")
        fs.write("/fs/cut", 0, b"ABCDEFGHIJ")
        fs.truncate("/fs/cut", 4)
        fs.write("/fs/cut", 8, b"xy")
        fs.crash()
        fs.recover()
        assert fs.stat("/fs/grown").size == 20
        assert fs.read("/fs/grown", 0, 20) == b"ABCDEFGHIJ" + bytes(10)
        assert fs.read("/fs/cut", 0, 10) == b"ABCD\0\0\0\0xy"

    def test_sizes_recovered_via_extend_records(self):
        fs = make_fs()
        fs.create("/fs/sized")
        fs.write_accounting("/fs/sized", 0, 10_000)
        fs.crash()
        fs.recover()
        assert fs.stat("/fs/sized").size == 10_000

    def test_extent_backend_metadata_recovers_without_data(self):
        # With the deployed (extent) backend the namespace journal still
        # recovers metadata; chunk data has no durable log (the §7 gap
        # the log design closes).
        fs = make_fs(backend="extent")
        fs.create("/fs/f")
        fs.write("/fs/f", 0, b"vanishes")
        fs.crash()
        fs.recover()
        assert fs.exists("/fs/f")

    def test_whole_fs_crash_releases_every_lock(self):
        # A crash loses the lock tables as crash_node does: a lock held
        # before fs.crash() must not block another owner after recovery.
        fs = make_fs()
        ino = fs.create("/fs/locked").ino
        for node in fs.nodes.values():
            assert node.range_locks.try_lock_write(ino, 0, 100, "before")
            assert node.meta_locks.try_lock(ino, "before")
        fs.crash()
        fs.recover()
        for node in fs.nodes.values():
            assert node.range_locks.write_locks_held(ino) == 0
            assert node.range_locks.try_lock_write(ino, 0, 100, "after")
            assert not node.meta_locks.locked(ino)


class TestNodeRecoveryAfterRemake:
    """``recover_node`` re-makes one server's metadata beside a live
    namespace: a record about a removed inode must not hit the name's
    later incarnation (records carry the inode number they acted on),
    nothing replayed may free data that survived, and a re-made
    directory keeps the children whose metadata lives elsewhere."""

    SERVERS = ("a", "b", "c")

    def fresh(self):
        return JournaledFS(list(self.SERVERS), capacity_per_server=1 << 22,
                           stripe_size=128, default_stripe_count=1,
                           storage_backend="log")

    def test_old_rmdir_spares_remade_directory(self):
        for server in self.SERVERS:
            fs = self.fresh()
            fs.mkdir("/d")
            fs.rmdir("/d")
            fs.mkdir("/d")
            fs.create("/d/f")
            fs.crash_node(server)
            fs.recover_node(server)     # was: DirectoryNotEmpty
            assert fs.exists("/d") and fs.exists("/d/f"), server

    def test_old_unlink_spares_remade_file(self):
        for server in self.SERVERS:
            fs = self.fresh()
            fs.mkdir("/d")
            fs.create("/d/f")
            fs.write("/d/f", 0, b"x" * 300)
            fs.truncate("/d/f", 2)
            fs.unlink("/d/f")
            fs.create("/d/f")
            fs.write("/d/f", 0, b"new-data")
            fs.crash_node(server)
            fs.recover_node(server)
            assert fs.stat("/d/f").size == 8, server
            assert fs.read("/d/f", 0, 8) == b"new-data", server  # was: zeros

    def test_old_truncate_spares_later_data_of_the_same_file(self):
        for server in self.SERVERS:
            fs = self.fresh()
            fs.create("/f")
            fs.write("/f", 0, b"x" * 300)
            fs.truncate("/f", 0)
            fs.write("/f", 0, b"new-data")
            fs.crash_node(server)
            fs.recover_node(server)
            assert fs.read("/f", 0, 8) == b"new-data", server

    def test_recovered_directory_keeps_children_on_other_servers(self):
        for server in self.SERVERS:
            fs = self.fresh()
            fs.mkdir("/d")
            fs.create("/d/f")
            fs.crash_node(server)
            fs.recover_node(server)
            assert fs.readdir("/d") == ["f"], server


OPS = st.lists(
    st.tuples(st.sampled_from(["create", "write", "unlink", "mkdir"]),
              st.integers(0, 5)),
    min_size=1, max_size=30)


@settings(max_examples=25)
@given(OPS, st.randoms(use_true_random=False))
def test_property_recovered_fs_matches_reference(ops, rnd):
    """Random namespace churn + data writes, then crash/recover: the
    recovered FS matches a shadow model of paths and contents."""
    fs = make_fs()
    shadow = {}  # path -> bytes
    for op, n in ops:
        path = f"/fs/n{n}"
        if op == "create" and path not in shadow and not fs.exists(path):
            fs.create(path)
            shadow[path] = b""
        elif op == "write" and path in shadow:
            data = bytes([n]) * (n * 37 + 5)
            fs.write(path, 0, data)
            old = shadow[path]
            shadow[path] = data + old[len(data):]
        elif op == "unlink" and path in shadow:
            fs.unlink(path)
            del shadow[path]
    fs.crash()
    fs.recover()
    for path, content in shadow.items():
        assert fs.exists(path), path
        assert fs.read(path, 0, len(content) + 10) == content, path
    # No extra files resurrected.
    survivors = {f"/fs/{name}" for name in fs.readdir("/fs")}
    assert survivors == set(shadow)
