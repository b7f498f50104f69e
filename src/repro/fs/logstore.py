"""Log-structured byte-addressable store (the paper's §7 future work).

"As future work, we are investigating various log-structure
byte-addressable file system designs and persistent data structure
strategy to enable fault tolerance in ThemisIO."

This module implements that design point: an append-only, segmented log
holding chunk-sized data records keyed by ``(ino, chunk_index)``. The
key properties fault tolerance needs:

- **append-only writes** — a record is immutable once written; an
  overwrite appends a new version and supersedes the old one, which
  keeps its header (key, sequence, length) and drops its payload, as a
  device trims a dead extent: no scan, GC pass or read touches a
  superseded payload again;
- **monotonic sequence numbers** — total order across segments, so a
  scan can always decide which version of a key is newest;
- **crash consistency** — the in-memory index is volatile; after a
  crash :meth:`recover` rebuilds it by scanning sealed segments and the
  open head segment in order. Everything appended before the crash is
  durable; nothing else is;
- **garbage collection** — sealed segments whose live fraction drops
  below a threshold are cleaned by copying live records to the head.

The store is byte-accurate (live records carry real bytes; the byte
accounting counts every record's full length) and used by the file
system's ``backend="log"`` mode; see :mod:`repro.fs.filesystem`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Hashable, List, NamedTuple, Optional, Tuple

from ..errors import FSError, InvalidArgument, NoSpace

__all__ = ["LogStructuredStore", "LogRecord", "Segment", "RecoveryReport"]

#: fixed per-record header: key, sequence, length, checksum.
HEADER_BYTES = 32


class LogRecord(NamedTuple):
    """One durable record in a segment: a header and, while the record is
    the newest version of its key, the payload."""

    key: Hashable
    seq: int
    length: int                   # payload bytes the record occupies
    tombstone: bool = False       # a delete marker (length 0)
    data: Optional[bytes] = None  # None once superseded (and for tombstones)

    @property
    def size(self) -> int:
        return HEADER_BYTES + self.length


@dataclass(eq=False)
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

    def append(self, record: LogRecord) -> int:
        """Append *record* (segment must be open and have room); returns
        its slot."""
        if self.sealed:
            raise FSError(f"append to sealed segment {self.seg_id}")
        if not self.fits(record):
            raise FSError(f"segment {self.seg_id} overflow")
        self.records.append(record)
        self.written += record.size
        return len(self.records) - 1


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
        self._index: Dict[Hashable, Tuple[Segment, int]] = {}  # key -> slot
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
        if HEADER_BYTES + len(data) > self.segment_size:
            raise InvalidArgument(
                f"record of {HEADER_BYTES + len(data)} bytes exceeds "
                f"segment size {self.segment_size}")
        self._append(LogRecord(key, next(self._seq), len(data),
                               data=bytes(data)))

    def read(self, key: Hashable) -> Optional[bytes]:
        """The newest version of *key*, or None if absent/deleted."""
        entry = self._index.get(key)
        if entry is None:
            return None
        seg, slot = entry
        return seg.records[slot].data

    def delete(self, key: Hashable) -> bool:
        """Append a tombstone; True if the key existed."""
        existed = key in self._index
        if existed:
            self._append(LogRecord(key, next(self._seq), 0, tombstone=True))
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
        slot = head.append(record)
        self._account(head, slot, record)

    def _account(self, seg: Segment, slot: int, record: LogRecord) -> None:
        """Index the new version; de-account the one it supersedes, which
        keeps its header in its segment and releases its payload."""
        old = self._index.get(record.key)
        if old is not None:
            old_seg, old_slot = old
            old_rec = old_seg.records[old_slot]
            old_seg.records[old_slot] = old_rec._replace(data=None)
            self._live_bytes[old_seg.seg_id] -= old_rec.size
        if record.tombstone:
            self._index.pop(record.key, None)
        else:
            self._index[record.key] = (seg, slot)
            self._live_bytes[seg.seg_id] = (
                self._live_bytes.get(seg.seg_id, 0) + record.size)

    # ---------------------------------------------------------------- GC
    def gc(self) -> int:
        """Clean sealed segments below the live threshold; returns bytes
        reclaimed. Live records are re-appended at the head, and so is a
        tombstone whose key still has a record in a surviving segment
        (dropping it would let the next :meth:`recover` resurrect that
        older version)."""
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
        shadowed = None  # keys with a record in a surviving sealed segment
        for seg in victims:
            reclaimed += seg.written
            for slot, record in enumerate(seg.records):
                if record.tombstone:
                    if record.key in self._index:
                        continue  # a newer version is live
                    if shadowed is None:
                        shadowed = {rec.key for kept in self.segments
                                    for rec in kept.records}
                    if record.key in shadowed:
                        shadowed.discard(record.key)  # one copy suffices
                        self._append(record._replace(seq=next(self._seq)))
                elif self._index.get(record.key) == (seg, slot):
                    # Still the live version: rewrite at the head.
                    self._append(record._replace(seq=next(self._seq)))
            self._live_bytes.pop(seg.seg_id, None)
        return reclaimed

    # ---------------------------------------------------------- fault model
    def crash(self) -> None:
        """Lose all volatile state (the index and accounting)."""
        self._index = {}
        self._live_bytes = {}

    def recover(self) -> RecoveryReport:
        """Rebuild the index by scanning segment headers in append order:
        the newest record per key wins, and a winning tombstone keeps an
        older version from being resurrected."""
        self._index = {}
        self._live_bytes = {}
        ordered = sorted(self.segments, key=lambda seg: seg.seg_id)
        if self._head is not None:
            ordered.append(self._head)
        scanned = 0
        tombstones = 0
        newest: Dict[Hashable, Tuple[int, Segment, int]] = {}
        for seg in ordered:
            for slot, record in enumerate(seg.records):
                scanned += 1
                if record.tombstone:
                    tombstones += 1
                held = newest.get(record.key)
                if held is None or record.seq > held[0]:
                    newest[record.key] = (record.seq, seg, slot)
        for key, (_seq, seg, slot) in newest.items():
            record = seg.records[slot]
            if not record.tombstone:
                self._index[key] = (seg, slot)
                self._live_bytes[seg.seg_id] = (
                    self._live_bytes.get(seg.seg_id, 0) + record.size)
        return RecoveryReport(
            segments_scanned=len(ordered),
            records_scanned=scanned,
            live_keys=len(self._index),
            tombstones=tombstones,
        )
