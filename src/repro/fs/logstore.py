"""Log-structured byte-addressable store (the paper's §7 future work).

"As future work, we are investigating various log-structure
byte-addressable file system designs and persistent data structure
strategy to enable fault tolerance in ThemisIO."

This module implements that design point: an append-only, segmented log
holding chunk-sized data records keyed by ``(ino, chunk_index)``. The
key properties fault tolerance needs:

- **append-only writes** — a record is immutable once written; an
  overwrite appends a new version and obsoletes the old one;
- **monotonic sequence numbers** — total order across segments, so a
  scan can always decide which version of a key is newest;
- **crash consistency** — the in-memory index is volatile; after a
  crash :meth:`recover` rebuilds it by scanning sealed segments and the
  open head segment in order. Everything appended before the crash is
  durable; nothing else is;
- **garbage collection** — sealed segments whose live fraction drops
  below a threshold are cleaned by copying live records to the head.

The store is byte-accurate (records carry real bytes) and used by the
file system's ``backend="log"`` mode; see :mod:`repro.fs.filesystem`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Tuple

from ..errors import FSError, InvalidArgument, NoSpace

__all__ = ["LogStructuredStore", "LogRecord", "Segment", "RecoveryReport"]

#: fixed per-record header: key, sequence, length, checksum.
HEADER_BYTES = 32


@dataclass(frozen=True)
class LogRecord:
    """One durable record in a segment."""

    key: Hashable
    seq: int
    data: Optional[bytes]  # None marks a tombstone (delete)

    @property
    def size(self) -> int:
        return HEADER_BYTES + (len(self.data) if self.data is not None else 0)

    @property
    def is_tombstone(self) -> bool:
        return self.data is None


@dataclass
class Segment:
    """A fixed-capacity append region of the log."""

    seg_id: int
    capacity: int
    records: List[LogRecord] = field(default_factory=list)
    written: int = 0
    sealed: bool = False

    def fits(self, record: LogRecord) -> bool:
        """True if *record* fits in the remaining capacity."""
        return self.written + record.size <= self.capacity

    def append(self, record: LogRecord) -> None:
        """Append *record* (segment must be open and have room)."""
        if self.sealed:
            raise FSError(f"append to sealed segment {self.seg_id}")
        if not self.fits(record):
            raise FSError(f"segment {self.seg_id} overflow")
        self.records.append(record)
        self.written += record.size


@dataclass
class RecoveryReport:
    """What a post-crash scan found."""

    segments_scanned: int
    records_scanned: int
    live_keys: int
    tombstones: int


class LogStructuredStore:
    """Append-only segmented log with an in-memory key index."""

    def __init__(self, capacity: int, segment_size: int = 1 << 20,
                 gc_live_threshold: float = 0.5):
        if capacity <= 0 or segment_size <= 0:
            raise FSError("capacity and segment_size must be positive")
        if segment_size > capacity:
            raise FSError("segment_size exceeds capacity")
        if not 0.0 <= gc_live_threshold <= 1.0:
            raise FSError("gc_live_threshold must be in [0, 1]")
        self.capacity = int(capacity)
        self.segment_size = int(segment_size)
        self.gc_live_threshold = float(gc_live_threshold)
        self.max_segments = self.capacity // self.segment_size
        if self.max_segments < 2:
            raise FSError("need room for at least two segments")
        self._seq = itertools.count(1)
        self._seg_ids = itertools.count(0)
        self.segments: List[Segment] = []
        self._head: Optional[Segment] = None
        # Volatile state (lost on crash, rebuilt by recover()):
        self._index: Dict[Hashable, Tuple[int, LogRecord]] = {}
        self._live_bytes: Dict[int, int] = {}  # seg_id -> live record bytes
        self.gc_runs = 0

    # -------------------------------------------------------------- geometry
    @property
    def segment_count(self) -> int:
        return len(self.segments) + (1 if self._head is not None else 0)

    @property
    def used_bytes(self) -> int:
        total = sum(seg.written for seg in self.segments)
        if self._head is not None:
            total += self._head.written
        return total

    @property
    def live_bytes(self) -> int:
        return sum(self._live_bytes.values())

    # ------------------------------------------------------------------- I/O
    def write(self, key: Hashable, data: bytes) -> None:
        """Append a new version of *key*."""
        if not isinstance(data, (bytes, bytearray)):
            raise InvalidArgument(f"data must be bytes: {type(data)}")
        self._append(LogRecord(key=key, seq=next(self._seq), data=bytes(data)))

    def read(self, key: Hashable) -> Optional[bytes]:
        """The newest version of *key*, or None if absent/deleted."""
        entry = self._index.get(key)
        if entry is None:
            return None
        return entry[1].data

    def delete(self, key: Hashable) -> bool:
        """Append a tombstone; True if the key existed."""
        existed = key in self._index
        if existed:
            self._append(LogRecord(key=key, seq=next(self._seq), data=None))
        return existed

    def keys(self):
        """The set of live (non-deleted) keys."""
        return set(self._index)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._index

    # -------------------------------------------------------------- internal
    def _append(self, record: LogRecord) -> None:
        head = self._head
        if head is None or not head.fits(record):
            if head is not None:
                head.sealed = True
                self.segments.append(head)
            if len(self.segments) + 1 > self.max_segments:
                self.gc()
                if len(self.segments) + 1 > self.max_segments:
                    raise NoSpace("log full even after garbage collection")
            head = self._head = Segment(seg_id=next(self._seg_ids),
                                        capacity=self.segment_size)
        if record.size > self.segment_size:
            raise InvalidArgument(
                f"record of {record.size} bytes exceeds segment size "
                f"{self.segment_size}")
        head.append(record)
        self._account(head.seg_id, record)

    def _account(self, seg_id: int, record: LogRecord) -> None:
        """Index the new version; de-account the one it replaces."""
        old = self._index.get(record.key)
        if old is not None:
            old_seg, old_rec = old
            self._live_bytes[old_seg] = (
                self._live_bytes.get(old_seg, 0) - old_rec.size)
        if record.is_tombstone:
            self._index.pop(record.key, None)
        else:
            self._index[record.key] = (seg_id, record)
            self._live_bytes[seg_id] = (
                self._live_bytes.get(seg_id, 0) + record.size)

    # ---------------------------------------------------------------- GC
    def gc(self) -> int:
        """Clean sealed segments below the live threshold; returns bytes
        reclaimed. Live records are re-appended at the head."""
        self.gc_runs += 1
        victims = [seg for seg in self.segments
                   if (self._live_bytes.get(seg.seg_id, 0) / seg.capacity)
                   < self.gc_live_threshold]
        if not victims:
            return 0
        reclaimed = 0
        victim_ids = {seg.seg_id for seg in victims}
        self.segments = [seg for seg in self.segments
                         if seg.seg_id not in victim_ids]
        for seg in victims:
            reclaimed += seg.written
            for record in seg.records:
                current = self._index.get(record.key)
                if (current is not None and current[0] == seg.seg_id
                        and current[1].seq == record.seq):
                    # Still the live version: rewrite at the head.
                    self._append(LogRecord(key=record.key,
                                           seq=next(self._seq),
                                           data=record.data))
            self._live_bytes.pop(seg.seg_id, None)
        return reclaimed

    # ---------------------------------------------------------- fault model
    def crash(self) -> None:
        """Lose all volatile state (the index and accounting)."""
        self._index = {}
        self._live_bytes = {}

    def recover(self) -> RecoveryReport:
        """Rebuild the index by scanning segments in append order."""
        self._index = {}
        self._live_bytes = {}
        ordered = sorted(self.segments, key=lambda seg: seg.seg_id)
        if self._head is not None:
            ordered.append(self._head)
        scanned = 0
        tombstones = 0
        # Replay in sequence order; the newest record per key wins.
        for seg in ordered:
            for record in seg.records:
                scanned += 1
                if record.is_tombstone:
                    tombstones += 1
                current = self._index.get(record.key)
                if current is None or record.seq > current[1].seq:
                    if record.is_tombstone:
                        self._index.pop(record.key, None)
                        # Remember tombstone ordering via a sentinel so an
                        # older data record cannot resurrect the key.
                        self._index[record.key] = (seg.seg_id, record)
                    else:
                        self._index[record.key] = (seg.seg_id, record)
        # Drop tombstone sentinels and rebuild live accounting.
        for key in [k for k, (_s, rec) in self._index.items()
                    if rec.is_tombstone]:
            del self._index[key]
        for seg_id, record in self._index.values():
            self._live_bytes[seg_id] = (
                self._live_bytes.get(seg_id, 0) + record.size)
        return RecoveryReport(
            segments_scanned=len(ordered),
            records_scanned=scanned,
            live_keys=len(self._index),
            tombstones=tombstones,
        )
