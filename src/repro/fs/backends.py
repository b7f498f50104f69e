"""Pluggable chunk-storage backends for a storage node.

Two designs behind one interface, each storing chunks of the one size
its file system stripes with:

- :class:`ExtentBackend` — the paper's deployed design (§4.3): a
  byte-addressable extent per stripe chunk on the NVMe region; in-place
  overwrites; no crash recovery story.
- :class:`LogBackend` — the §7 future-work design: chunks live as
  versioned records in a :class:`~repro.fs.logstore.LogStructuredStore`;
  overwrites append; the index is recoverable by a segment scan, giving
  data-path fault tolerance at the cost of read-modify-write on partial
  chunk updates and periodic garbage collection. A whole-chunk write
  stores the caller's bytes as they are (no copy when they already are
  ``bytes``), and a superseded version holds no payload.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Optional, Tuple

from ..errors import FSError, InvalidArgument, NoSpace
from .logstore import LogStructuredStore, RecoveryReport

__all__ = ["ChunkBackend", "ExtentBackend", "LogBackend", "make_backend"]


class ChunkBackend(ABC):
    """Chunk-granular storage: what a stripe slice lands on."""

    name: str = "abstract"

    def __init__(self, chunk_size: int):
        self.chunk_size = chunk_size

    def _check_range(self, chunk_offset: int, length: int) -> None:
        if chunk_offset < 0 or chunk_offset + length > self.chunk_size:
            raise InvalidArgument(
                f"write outside chunk: {chunk_offset}+{length} "
                f"(chunk {self.chunk_size})")

    @abstractmethod
    def write_chunk(self, ino: int, chunk_index: int, chunk_offset: int,
                    data: bytes) -> None:
        """Write *data* at *chunk_offset* inside the chunk."""

    @abstractmethod
    def read_chunk(self, ino: int, chunk_index: int, chunk_offset: int,
                   length: int) -> Optional[bytes]:
        """Read from the chunk; None if the chunk was never written."""

    @abstractmethod
    def drop_file(self, ino: int) -> int:
        """Release every chunk of *ino*; returns bytes freed."""

    @property
    @abstractmethod
    def used_bytes(self) -> int:
        """Device bytes currently allocated."""

    def has_chunk(self, ino: int, chunk_index: int) -> bool:
        """True if the chunk has ever been written."""
        return self.read_chunk(ino, chunk_index, 0, 0) is not None

    def crash(self) -> None:
        """Lose volatile state (an in-place backend keeps none)."""

    def recover(self) -> RecoveryReport:
        """Rebuild the volatile state :meth:`crash` lost from the
        durable one; reports what had to be scanned."""
        return RecoveryReport(0, 0, 0, 0)


class ExtentBackend(ChunkBackend):
    """One chunk-sized extent per written chunk; in-place overwrite.

    Every extent is one chunk long, so the device is a count of chunk
    slots: best fit with coalescing over equal-sized extents runs out
    exactly when ``capacity // chunk_size`` chunks are held, and any
    freed slot fits the next chunk. Unwritten bytes of a chunk read back
    as zeros.
    """

    name = "extent"

    def __init__(self, capacity: int, chunk_size: int):
        if capacity <= 0 or chunk_size <= 0:
            raise FSError(
                f"capacity and chunk size must be positive: "
                f"{capacity}, {chunk_size}")
        super().__init__(chunk_size)
        self.max_chunks = capacity // chunk_size
        self.chunks: Dict[Tuple[int, int], bytearray] = {}

    def write_chunk(self, ino, chunk_index, chunk_offset, data):
        self._check_range(chunk_offset, len(data))
        key = (ino, chunk_index)
        extent = self.chunks.get(key)
        if extent is None:
            if len(self.chunks) >= self.max_chunks:
                raise NoSpace(
                    f"cannot allocate a {self.chunk_size}-byte chunk "
                    f"({self.max_chunks} held)")
            extent = self.chunks[key] = bytearray(self.chunk_size)
        extent[chunk_offset:chunk_offset + len(data)] = data

    def read_chunk(self, ino, chunk_index, chunk_offset, length):
        extent = self.chunks.get((ino, chunk_index))
        if extent is None:
            return None
        return bytes(extent[chunk_offset:chunk_offset + length])

    def drop_file(self, ino):
        keys = [key for key in self.chunks if key[0] == ino]
        for key in keys:
            del self.chunks[key]
        return len(keys) * self.chunk_size

    @property
    def used_bytes(self):
        return len(self.chunks) * self.chunk_size


class LogBackend(ChunkBackend):
    """Chunks as versioned whole-chunk records in an append-only log."""

    name = "log"

    def __init__(self, capacity: int, chunk_size: int):
        super().__init__(chunk_size)
        self.store = LogStructuredStore(
            capacity,
            segment_size=min(max(capacity // 64, 1 << 16), capacity // 2))

    def write_chunk(self, ino, chunk_index, chunk_offset, data):
        self._check_range(chunk_offset, len(data))
        key = (ino, chunk_index)
        if len(data) == self.chunk_size:
            # The whole chunk: nothing of the previous version survives.
            self.store.write(key, bytes(data))
            return
        current = self.store.read(key)
        buf = (bytearray(current) if current is not None
               else bytearray(self.chunk_size))
        buf[chunk_offset:chunk_offset + len(data)] = data
        self.store.write(key, bytes(buf))

    def read_chunk(self, ino, chunk_index, chunk_offset, length):
        data = self.store.read((ino, chunk_index))
        if data is None:
            return None
        return data[chunk_offset:chunk_offset + length]

    def drop_file(self, ino):
        """Tombstone the file's live chunks, lowest index first (the
        store's index names them)."""
        released = 0
        for key in sorted(key for key in self.store.keys() if key[0] == ino):
            released += len(self.store.read(key))
            self.store.delete(key)
        return released

    @property
    def used_bytes(self):
        return self.store.live_bytes

    # ------------------------------------------------------------ recovery
    def crash(self) -> None:
        """Lose volatile state (the store's index)."""
        self.store.crash()

    def recover(self) -> RecoveryReport:
        """Rebuild from the durable log; returns the recovery report."""
        return self.store.recover()


def make_backend(kind: str, capacity: int, chunk_size: int) -> ChunkBackend:
    """Factory: ``"extent"`` (default design) or ``"log"`` (§7)."""
    if kind == "extent":
        return ExtentBackend(capacity, chunk_size)
    if kind == "log":
        return LogBackend(capacity, chunk_size)
    raise InvalidArgument(f"unknown storage backend {kind!r}")
