"""Pluggable chunk-storage backends for a storage node.

Two designs behind one interface:

- :class:`ExtentBackend` — the paper's deployed design (§4.3): a
  byte-addressable extent per stripe chunk on the NVMe region; in-place
  overwrites; no crash recovery story.
- :class:`LogBackend` — the §7 future-work design: chunks live as
  versioned records in a :class:`~repro.fs.logstore.LogStructuredStore`;
  overwrites append; the index is recoverable by a segment scan, giving
  data-path fault tolerance at the cost of read-modify-write on partial
  chunk updates and periodic garbage collection.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, Optional, Tuple

from ..errors import InvalidArgument
from .logstore import LogStructuredStore, RecoveryReport
from .storage import Extent, NVMeRegion

__all__ = ["ChunkBackend", "ExtentBackend", "LogBackend", "make_backend"]


class ChunkBackend(ABC):
    """Chunk-granular storage: what a stripe slice lands on."""

    name: str = "abstract"

    @abstractmethod
    def write_chunk(self, ino: int, chunk_index: int, chunk_offset: int,
                    data: bytes, chunk_size: int) -> None:
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
    """One pre-sized extent per chunk; in-place overwrite."""

    name = "extent"

    def __init__(self, capacity: int):
        self.region = NVMeRegion(capacity)
        self.chunks: Dict[Tuple[int, int], Extent] = {}

    def _extent(self, ino: int, chunk_index: int,
                chunk_size: int) -> Extent:
        key = (ino, chunk_index)
        extent = self.chunks.get(key)
        if extent is None:
            extent = self.region.alloc(chunk_size)
            self.chunks[key] = extent
        return extent

    def write_chunk(self, ino, chunk_index, chunk_offset, data, chunk_size):
        extent = self._extent(ino, chunk_index, chunk_size)
        self.region.write(extent, chunk_offset, data)

    def read_chunk(self, ino, chunk_index, chunk_offset, length):
        extent = self.chunks.get((ino, chunk_index))
        if extent is None:
            return None
        return self.region.read(extent, chunk_offset, length)

    def drop_file(self, ino):
        released = 0
        for key in [k for k in self.chunks if k[0] == ino]:
            extent = self.chunks.pop(key)
            self.region.free(extent)
            released += extent.length
        return released

    @property
    def used_bytes(self):
        return self.region.used_bytes


class LogBackend(ChunkBackend):
    """Chunks as versioned whole-chunk records in an append-only log."""

    name = "log"

    def __init__(self, capacity: int, segment_size: Optional[int] = None,
                 gc_live_threshold: float = 0.5):
        if segment_size is None:
            segment_size = min(max(capacity // 64, 1 << 16), capacity // 2)
        self.store = LogStructuredStore(capacity, segment_size=segment_size,
                                        gc_live_threshold=gc_live_threshold)
        self._files: Dict[int, set] = {}  # ino -> chunk indices (volatile)

    def write_chunk(self, ino, chunk_index, chunk_offset, data, chunk_size):
        if chunk_offset < 0 or chunk_offset + len(data) > chunk_size:
            raise InvalidArgument(
                f"write outside chunk: {chunk_offset}+{len(data)} "
                f"(chunk {chunk_size})")
        key = (ino, chunk_index)
        current = self.store.read(key)
        buf = bytearray(current) if current is not None else bytearray(chunk_size)
        buf[chunk_offset:chunk_offset + len(data)] = data
        self.store.write(key, bytes(buf))
        self._files.setdefault(ino, set()).add(chunk_index)

    def read_chunk(self, ino, chunk_index, chunk_offset, length):
        data = self.store.read((ino, chunk_index))
        if data is None:
            return None
        return data[chunk_offset:chunk_offset + length]

    def drop_file(self, ino):
        released = 0
        for chunk_index in sorted(self._files.pop(ino, set())):
            data = self.store.read((ino, chunk_index))
            if data is not None:
                released += len(data)
            self.store.delete((ino, chunk_index))
        return released

    @property
    def used_bytes(self):
        return self.store.live_bytes

    # ------------------------------------------------------------ recovery
    def crash(self) -> None:
        """Lose volatile state (index + file map)."""
        self.store.crash()
        self._files = {}

    def recover(self) -> RecoveryReport:
        """Rebuild from the durable log; returns the recovery report."""
        report = self.store.recover()
        self._files = {}
        for ino, chunk_index in self.store.keys():
            self._files.setdefault(ino, set()).add(chunk_index)
        return report


def make_backend(kind: str, capacity: int, **kwargs) -> ChunkBackend:
    """Factory: ``"extent"`` (default design) or ``"log"`` (§7)."""
    if kind == "extent":
        return ExtentBackend(capacity)
    if kind == "log":
        return LogBackend(capacity, **kwargs)
    raise InvalidArgument(f"unknown storage backend {kind!r}")
