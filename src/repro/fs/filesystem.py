"""The ThemisIO userspace file system (§4.3).

A distributed byte-addressable FS across a set of storage servers:

- file and directory *metadata* is placed on the server chosen by a
  consistent hash of the path;
- file *data* is striped over ``stripe_count`` servers (the hash owner
  and its clockwise successors), one extent per stripe chunk;
- directories are stored as files whose content is their entry table;
  creation and deletion update the parent directory's content;
- concurrent reads are lock-free; non-overlapping concurrent writes
  proceed; metadata updates take a per-inode lock (see
  :mod:`repro.fs.locking` — the lock tables live on each storage node
  and are exercised by the burst-buffer server workers).

FS calls here are instantaneous data-structure operations: *time* is
charged by the burst-buffer layer that invokes them, which keeps the
storage logic testable in isolation.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from ..errors import (DirectoryNotEmpty, FileExists, FileNotFound,
                      InvalidArgument, IsADirectory, NotADirectory)
from ..units import MiB
from . import erasure as ec
from . import path as pathmod
from .backends import make_backend
from .hashing import ConsistentHashRing
from .locking import MetadataLockTable, RangeLockTable
from .metadata import FileType, Inode, Stat, alloc_ino
from .striping import (ErasureSpec, StripeSpec, group_range, map_range,
                       parity_slices)

__all__ = ["StorageNode", "ThemisFS"]

#: Cap on cached path resolutions per file system.
_PATH_CACHE_MAX = 8192


class StorageNode:
    """One server's storage state: device backend, owned metadata, locks."""

    def __init__(self, name: str, capacity: int, chunk_size: int,
                 storage_backend: str = "extent"):
        self.name = name
        self.backend = make_backend(storage_backend, capacity, chunk_size)
        self.inodes: Dict[int, Inode] = {}  # metadata owned by this server
        self.paths: Dict[str, int] = {}  # path -> ino index for fast lookup
        self.range_locks = RangeLockTable()
        self.meta_locks = MetadataLockTable()

    def add_inode(self, inode: Inode) -> None:
        """Index an inode this server owns."""
        self.inodes[inode.ino] = inode
        self.paths[inode.path] = inode.ino

    def remove_inode(self, inode: Inode) -> None:
        """Drop an inode from this server's index."""
        self.inodes.pop(inode.ino, None)
        self.paths.pop(inode.path, None)

    def write_chunk(self, ino: int, chunk_index: int, chunk_offset: int,
                    data: bytes) -> None:
        """Write into one stripe chunk via the storage backend."""
        self.backend.write_chunk(ino, chunk_index, chunk_offset, data)

    def read_chunk(self, ino: int, chunk_index: int, chunk_offset: int,
                   length: int) -> Optional[bytes]:
        """Read from one stripe chunk; None if never written."""
        return self.backend.read_chunk(ino, chunk_index, chunk_offset, length)

    def drop_file(self, ino: int) -> int:
        """Free every chunk of *ino* on this node; returns bytes released."""
        return self.backend.drop_file(ino)


class ThemisFS:
    """Distributed userspace file system over named storage servers.

    Parameters
    ----------
    server_names:
        Burst-buffer server names (stripe targets and metadata owners).
    capacity_per_server:
        Device bytes per server.
    stripe_size:
        Chunk size in bytes (default 1 MiB).
    default_stripe_count:
        Servers per file unless overridden at ``create``.
    clock:
        Zero-argument callable giving the current time for ctime/mtime
        (wire the simulation engine's ``now`` here).
    """

    def __init__(self, server_names, capacity_per_server: int,
                 stripe_size: int = MiB, default_stripe_count: int = 1,
                 vnodes: int = 64, clock: Optional[Callable[[], float]] = None,
                 storage_backend: str = "extent",
                 erasure: Optional[Tuple[int, int]] = None):
        names = list(server_names)
        if not names:
            raise InvalidArgument("need at least one server")
        if default_stripe_count < 1:
            raise InvalidArgument("default_stripe_count must be >= 1")
        if erasure is not None:
            e_k, e_n = int(erasure[0]), int(erasure[1])
            if not 1 <= e_k < e_n:
                raise InvalidArgument(
                    f"erasure needs 1 <= k < n: k={e_k} n={e_n}")
            if e_n > len(names):
                raise InvalidArgument(
                    f"erasure n={e_n} exceeds server count {len(names)}")
            erasure = (e_k, e_n)
        self.stripe_size = int(stripe_size)
        self.default_stripe_count = min(default_stripe_count, len(names))
        self.storage_backend = storage_backend
        #: (k, n) durability tier; None keeps the plain striped layout
        #: (and the exact pre-erasure behaviour, trace for trace).
        self.erasure = erasure
        self.ring = ConsistentHashRing(names, vnodes=vnodes)
        self.nodes: Dict[str, StorageNode] = {
            name: StorageNode(name, capacity_per_server, self.stripe_size,
                              storage_backend=storage_backend)
            for name in names}
        self.clock = clock or (lambda: 0.0)
        # Path-resolution cache: raw path string -> Inode, positive hits
        # only (a miss re-runs normalize + ring lookup, so absent paths
        # are always re-checked). Cleared wholesale on any removal or
        # node crash/recovery — removals are rare next to lookups.
        self._path_cache: Dict[str, Inode] = {}
        root = Inode(ino=1, ftype=FileType.DIRECTORY, path="/",
                     ctime=self.clock(), mtime=self.clock())
        self._meta_node("/").add_inode(root)

    # -------------------------------------------------------------- plumbing
    def _meta_node(self, path: str) -> StorageNode:
        return self.nodes[self.ring.lookup(path)]

    def lookup(self, path: str) -> Optional[Inode]:
        """The inode at *path*, or None."""
        cached = self._path_cache.get(path)
        if cached is not None:
            return cached
        norm = pathmod.normalize(path)
        node = self._meta_node(norm)
        ino = node.paths.get(norm)
        inode = node.inodes.get(ino) if ino is not None else None
        if inode is not None:
            if len(self._path_cache) >= _PATH_CACHE_MAX:
                self._path_cache.clear()
            self._path_cache[path] = inode
        return inode

    def _require(self, path: str) -> Inode:
        inode = self.lookup(path)
        if inode is None:
            raise FileNotFound(path)
        return inode

    def _require_dir(self, path: str) -> Inode:
        inode = self._require(path)
        if not inode.is_dir:
            raise NotADirectory(path)
        return inode

    def metadata_server(self, path: str) -> str:
        """Name of the server owning *path*'s metadata."""
        return self.ring.lookup(pathmod.normalize(path))

    # -------------------------------------------------------------- creation
    def mkdir(self, path: str) -> Inode:
        """Create a directory; parent must exist."""
        norm = pathmod.normalize(path)
        if self.lookup(norm) is not None:
            raise FileExists(norm)
        parent_path, name = pathmod.split(norm)
        parent = self._require_dir(parent_path)
        now = self.clock()
        inode = Inode(ino=alloc_ino(), ftype=FileType.DIRECTORY, path=norm,
                      ctime=now, mtime=now)
        self._meta_node(norm).add_inode(inode)
        parent.link_child(name, inode.ino)
        parent.mtime = now
        return inode

    def makedirs(self, path: str) -> None:
        """Create *path* and any missing ancestors (idempotent)."""
        comps = pathmod.components(path)
        cur = "/"
        for comp in comps:
            cur = pathmod.join(cur, comp)
            if self.lookup(cur) is None:
                self.mkdir(cur)

    def create(self, path: str, stripe_count: Optional[int] = None,
               uid: int = 0) -> Inode:
        """Create an empty regular file; parent directory must exist."""
        norm = pathmod.normalize(path)
        if self.lookup(norm) is not None:
            raise FileExists(norm)
        parent_path, name = pathmod.split(norm)
        parent = self._require_dir(parent_path)
        now = self.clock()
        if self.erasure is not None:
            e_k, e_n = self.erasure
            servers = tuple(self.ring.lookup_n(norm, e_n))
            spec = ErasureSpec(self.stripe_size, servers, e_k)
        else:
            count = (stripe_count if stripe_count is not None
                     else self.default_stripe_count)
            if count < 1:
                raise InvalidArgument(f"stripe_count must be >= 1: {count}")
            count = min(count, len(self.nodes))
            spec = StripeSpec(self.stripe_size,
                              tuple(self.ring.lookup_n(norm, count)))
        inode = Inode(ino=alloc_ino(), ftype=FileType.FILE, path=norm,
                      ctime=now, mtime=now, uid=uid, stripe=spec)
        self._meta_node(norm).add_inode(inode)
        parent.link_child(name, inode.ino)
        parent.mtime = now
        return inode

    # ----------------------------------------------------------------- query
    def exists(self, path: str) -> bool:
        """True if *path* names an existing file or directory."""
        return self.lookup(path) is not None

    def stat(self, path: str) -> Stat:
        """Stat snapshot of *path* (raises FileNotFound if absent)."""
        return self._require(path).stat()

    def readdir(self, path: str) -> List[str]:
        """Sorted child names of directory *path* (§4.3 directory query)."""
        return sorted(self._require_dir(path).entries)

    # ------------------------------------------------------------------- I/O
    def write(self, path: str, offset: int, data: bytes) -> int:
        """Write *data* at *offset*; extends the file as needed."""
        inode = self._require(path)
        if inode.is_dir:
            raise IsADirectory(path)
        if offset < 0:
            raise InvalidArgument(f"negative offset: {offset}")
        for piece in map_range(inode.stripe, offset, len(data)):
            node = self.nodes[piece.server]
            lo = piece.file_offset - offset
            node.write_chunk(inode.ino, piece.chunk_index, piece.chunk_offset,
                             data[lo:lo + piece.length])
        inode.size = max(inode.size, offset + len(data))
        inode.mtime = self.clock()
        if isinstance(inode.stripe, ErasureSpec):
            for group, _ in group_range(inode.stripe, offset, len(data)):
                self.rebuild_parity(path, group)
        return len(data)

    def read(self, path: str, offset: int, length: int) -> bytes:
        """Read up to *length* bytes at *offset*; short at EOF; holes are zeros."""
        inode = self._require(path)
        if inode.is_dir:
            raise IsADirectory(path)
        if offset < 0 or length < 0:
            raise InvalidArgument(f"invalid range: {offset}+{length}")
        length = max(0, min(length, inode.size - offset))
        if length == 0:
            return b""
        out = bytearray(length)
        for piece in map_range(inode.stripe, offset, length):
            node = self.nodes[piece.server]
            data = node.read_chunk(inode.ino, piece.chunk_index,
                                   piece.chunk_offset, piece.length)
            if data is None:
                continue  # hole: stays zero
            lo = piece.file_offset - offset
            out[lo:lo + piece.length] = data
        return bytes(out)

    def write_accounting(self, path: str, offset: int, length: int) -> int:
        """Size-only write: advance metadata without materialising bytes.

        The arbitration experiments move simulated gigabytes; allocating
        real buffers for them would be pure overhead. Placement, striping
        and metadata behave exactly as :meth:`write`.
        """
        inode = self._require(path)
        if inode.is_dir:
            raise IsADirectory(path)
        if offset < 0 or length < 0:
            raise InvalidArgument(f"invalid range: {offset}+{length}")
        inode.size = max(inode.size, offset + length)
        inode.mtime = self.clock()
        return length

    def read_accounting(self, path: str, offset: int, length: int) -> int:
        """Size-only read: the byte count :meth:`read` would return."""
        inode = self._require(path)
        if inode.is_dir:
            raise IsADirectory(path)
        if offset < 0 or length < 0:
            raise InvalidArgument(f"invalid range: {offset}+{length}")
        return max(0, min(length, inode.size - offset))

    def truncate(self, path: str, size: int = 0) -> None:
        """Set the file's size to *size*, as POSIX ``truncate`` does.

        A shrink discards the bytes past *size*: they are zero-filled in
        the chunks that exist (a hole stays a hole), so a later grow
        reads them back as zeros. Shrinking to zero frees every chunk
        instead. A grow extends the file with a hole.
        """
        inode = self._require(path)
        if inode.is_dir:
            raise IsADirectory(path)
        if size < 0:
            raise InvalidArgument(f"negative size: {size}")
        if size == 0:
            for node in self.nodes.values():
                node.drop_file(inode.ino)
        elif size < inode.size:
            cut = inode.size - size
            for piece in map_range(inode.stripe, size, cut):
                node = self.nodes[piece.server]
                if node.backend.has_chunk(inode.ino, piece.chunk_index):
                    node.write_chunk(inode.ino, piece.chunk_index,
                                     piece.chunk_offset, bytes(piece.length))
            if isinstance(inode.stripe, ErasureSpec):
                for group, _ in group_range(inode.stripe, size, cut):
                    self.rebuild_parity(path, group)
        inode.size = size
        inode.mtime = self.clock()

    # -------------------------------------------------------------- deletion
    def unlink(self, path: str) -> None:
        """Remove a regular file and free its extents on every server."""
        inode = self._require(path)
        if inode.is_dir:
            raise IsADirectory(path)
        for node in self.nodes.values():
            node.drop_file(inode.ino)
        self._remove_meta(inode)

    def rmdir(self, path: str) -> None:
        """Remove an empty directory."""
        inode = self._require_dir(path)
        if inode.path == "/":
            raise InvalidArgument("cannot remove root")
        if inode.entries:
            raise DirectoryNotEmpty(path)
        self._remove_meta(inode)

    def _remove_meta(self, inode: Inode) -> None:
        parent_path, name = pathmod.split(inode.path)
        parent = self._require_dir(parent_path)
        parent.unlink_child(name)
        parent.mtime = self.clock()
        self._meta_node(inode.path).remove_inode(inode)
        # The cache is keyed by raw (possibly unnormalised) spellings, so
        # evicting one inode means dropping everything.
        self._path_cache.clear()

    # -------------------------------------------------------- erasure tier
    def _require_erasure(self, path: str) -> Inode:
        inode = self._require(path)
        if inode.is_dir:
            raise IsADirectory(path)
        if not isinstance(inode.stripe, ErasureSpec):
            raise InvalidArgument(f"{path} is not erasure-coded")
        return inode

    def _read_share(self, inode: Inode, group: int, share_index: int,
                    overlay: Optional[Tuple[int, bytes]] = None) -> bytes:
        """Full on-device content of one share (zero-filled holes).

        ``overlay=(offset, data)`` imposes an in-flight write's bytes
        over the chunk state for data shares — the degraded-write path
        computes parity from the true data even when the share's home
        server is down and its chunk was never written.
        """
        spec = inode.stripe
        chunk = spec.chunk_index_of_share(group, share_index)
        node = self.nodes[spec.server_of_share(group, share_index)]
        data = node.read_chunk(inode.ino, chunk, 0, self.stripe_size)
        if data is None:
            data = bytes(self.stripe_size)
        elif len(data) < self.stripe_size:
            data = data + bytes(self.stripe_size - len(data))
        if overlay is not None and share_index < spec.k:
            w_off, w_data = overlay
            # This data share covers logical bytes [lo, lo + stripe_size).
            lo = (group * spec.k + share_index) * self.stripe_size
            a = max(lo, w_off)
            b = min(lo + self.stripe_size, w_off + len(w_data))
            if a < b:
                data = (data[:a - lo] + w_data[a - w_off:b - w_off]
                        + data[b - lo:])
        return data

    def _group_materialised(self, inode: Inode, group: int) -> bool:
        """True if any share of *group* has ever been written (the
        accounting workloads never materialise bytes; parity work is
        skipped for their hole-groups, whose shares all decode to
        zeros anyway)."""
        spec = inode.stripe
        for s in range(spec.n):
            chunk = spec.chunk_index_of_share(group, s)
            node = self.nodes[spec.server_of_share(group, s)]
            if node.backend.has_chunk(inode.ino, chunk):
                return True
        return False

    def rebuild_parity(self, path: str, group: int,
                       only_server: Optional[str] = None,
                       overlay: Optional[Tuple[int, bytes]] = None,
                       skip_servers: Set[str] = frozenset()) -> int:
        """Recompute *group*'s parity shares from its data shares.

        ``only_server`` restricts the writes to parity shares held by
        that server (the burst-buffer worker path: each parity server
        rebuilds its own shares). ``overlay`` imposes an in-flight
        write's bytes over the chunk state (degraded writes: parity
        reflects data whose home server never received it) and
        ``skip_servers`` keeps the rebuild off down parity servers
        (their stale shares are repair's problem, not new content).
        Hole-groups are left untouched. Returns parity bytes written.
        """
        inode = self._require_erasure(path)
        spec = inode.stripe
        if overlay is None and not self._group_materialised(inode, group):
            return 0
        data_shares = [self._read_share(inode, group, s, overlay=overlay)
                       for s in range(spec.k)]
        parities = ec.encode(spec.k, spec.n, data_shares)
        written = 0
        for j, parity in enumerate(parities):
            share_index = spec.k + j
            server = spec.server_of_share(group, share_index)
            if only_server is not None and server != only_server:
                continue
            if server in skip_servers:
                continue
            self.nodes[server].write_chunk(
                inode.ino, spec.parity_chunk_index(group, share_index),
                0, parity)
            written += len(parity)
        return written

    def read_reconstruct(self, path: str, offset: int, length: int,
                         unavailable: Set[str]) -> Tuple[bytes, Dict[str, int]]:
        """Degraded read: *unavailable* servers' shares are reconstructed
        from any ``k`` surviving shares per group.

        Returns ``(data, info)`` where info counts
        ``groups_reconstructed``, ``shares_reconstructed``, and
        ``lost_bytes`` (bytes of the range whose group had fewer than
        ``k`` reachable shares — returned zero-filled, never raised).
        """
        inode = self._require_erasure(path)
        spec = inode.stripe
        if offset < 0 or length < 0:
            raise InvalidArgument(f"invalid range: {offset}+{length}")
        length = max(0, min(length, inode.size - offset))
        info = {"groups_reconstructed": 0, "shares_reconstructed": 0,
                "lost_bytes": 0}
        if length == 0:
            return b"", info
        out = bytearray(length)
        degraded: Dict[int, Optional[List[bytes]]] = {}
        for piece in map_range(spec, offset, length):
            lo = piece.file_offset - offset
            if piece.server not in unavailable:
                data = self.nodes[piece.server].read_chunk(
                    inode.ino, piece.chunk_index, piece.chunk_offset,
                    piece.length)
                if data is not None:
                    out[lo:lo + piece.length] = data
                continue
            group = piece.chunk_index // spec.k
            if group not in degraded:
                degraded[group] = self._decode_group(inode, group,
                                                     unavailable, info)
            shares = degraded[group]
            if shares is None:
                info["lost_bytes"] += piece.length
                continue  # unrecoverable: stays zero
            share = shares[piece.chunk_index % spec.k]
            out[lo:lo + piece.length] = share[
                piece.chunk_offset:piece.chunk_offset + piece.length]
        return bytes(out), info

    def _decode_group(self, inode: Inode, group: int,
                      unavailable: Set[str], info: Dict[str, int]
                      ) -> Optional[List[bytes]]:
        """Data shares of *group* from reachable shares; None if fewer
        than ``k`` survive."""
        spec = inode.stripe
        held = {}
        for s in range(spec.n):
            if spec.server_of_share(group, s) in unavailable:
                continue
            held[s] = self._read_share(inode, group, s)
            if len(held) == spec.k:
                break
        if len(held) < spec.k:
            return None
        missing = sum(1 for s in range(spec.k) if s not in held)
        info["groups_reconstructed"] += 1
        info["shares_reconstructed"] += missing
        return ec.decode(spec.k, spec.n, held)

    def repair_group(self, path: str, group: int, dead: str,
                     substitute: str,
                     unavailable: Optional[Set[str]] = None
                     ) -> Tuple[str, int]:
        """Rebuild *dead*'s share of *group* onto *substitute*.

        Returns ``(outcome, bytes_written)`` with outcome ``"repaired"``
        (share content reconstructed and written), ``"clean"`` (hole
        group — nothing materialised to move), or ``"lost"`` (fewer than
        ``k`` shares reachable; nothing written, loss is the caller's to
        account).
        """
        inode = self._require_erasure(path)
        spec = inode.stripe
        down = set(unavailable) if unavailable is not None else set()
        down.add(dead)
        if not self._group_materialised(inode, group):
            return "clean", 0
        lost_share = spec.share_of_server(group, dead)
        held = {}
        for s in range(spec.n):
            if s == lost_share or spec.server_of_share(group, s) in down:
                continue
            held[s] = self._read_share(inode, group, s)
            if len(held) == spec.k:
                break
        if len(held) < spec.k:
            return "lost", 0
        content = ec.reconstruct_share(spec.k, spec.n, held, lost_share)
        self.nodes[substitute].write_chunk(
            inode.ino, spec.chunk_index_of_share(group, lost_share),
            0, content)
        return "repaired", len(content)

    def restripe(self, path: str, old_server: str, new_server: str) -> None:
        """Swap one server in the file's erasure placement (repair's
        final step: shares were copied to *new_server*, route I/O there)."""
        inode = self._require_erasure(path)
        spec = inode.stripe
        if old_server not in spec.servers:
            raise InvalidArgument(
                f"{old_server} not in {path}'s placement {spec.servers}")
        if new_server in spec.servers:
            raise InvalidArgument(
                f"{new_server} already in {path}'s placement "
                f"{spec.servers}")
        servers = tuple(new_server if s == old_server else s
                        for s in spec.servers)
        inode.stripe = ErasureSpec(spec.stripe_size, servers, spec.k)
        inode.mtime = self.clock()

    def erasure_files_on(self, server: str) -> List[str]:
        """Paths of erasure-coded files with shares placed on *server*
        (sorted: the deterministic repair work list)."""
        paths = set()
        for node in self.nodes.values():
            for inode in node.inodes.values():
                if (not inode.is_dir
                        and isinstance(inode.stripe, ErasureSpec)
                        and server in inode.stripe.servers):
                    paths.add(inode.path)
        return sorted(paths)

    # ----------------------------------------------------------- fault model
    def crash_node(self, name: str) -> None:
        """Model server *name* crashing: locks vanish, volatile chunk
        indexes (log backends) are lost.

        The base class keeps namespace metadata through a crash — without
        a journal there would be nothing to rebuild it from, and a
        permanently wedged namespace is not a useful model.
        :class:`~repro.fs.journal.JournaledFS` overrides this to also
        lose the node's metadata tables, which :meth:`recover_node` then
        rebuilds from the journal.
        """
        node = self.nodes[name]
        node.range_locks.reset()
        node.meta_locks.reset()
        node.backend.crash()
        self._path_cache.clear()

    def recover_node(self, name: str) -> Dict[str, object]:
        """Bring server *name* back: rescan a log-backed store if present.

        Returns recovery statistics (``applied`` journal entries — always
        zero here — and per-backend ``scans``).
        """
        return {"applied": 0,
                "scans": {name: self.nodes[name].backend.recover()}}

    def used_bytes(self) -> Dict[str, int]:
        """Per-server device usage."""
        return {name: node.backend.used_bytes
                for name, node in self.nodes.items()}
