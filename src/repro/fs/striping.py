"""Stripe layout computation.

A file with stripe size ``S`` over servers ``[s0, s1, ...]`` places byte
range ``[k*S, (k+1)*S)`` (chunk ``k``) on server ``servers[k % len]``.
:func:`map_range` splits an arbitrary byte range into per-chunk segments,
which is all both the client (to route requests) and the server (to hit
its local extents) need.

Layouts are pure functions of ``(spec, offset, length)``
(:func:`split_range`) and workloads re-touch the same ranges constantly
(a checkpoint loop re-writes one range per iteration), so both
:func:`map_range` and the per-server aggregation :func:`server_spans`
memoise their results on the spec. Cached results are the exact objects
a fresh computation would produce; callers iterate them read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..errors import InvalidArgument

__all__ = ["StripeSpec", "ChunkSlice", "split_range", "map_range",
           "server_spans"]

#: Cap on memoised ranges per stripe spec (per memo kind).
_MEMO_MAX = 4096


@dataclass(frozen=True)
class StripeSpec:
    """Striping parameters recorded in file metadata (§4.3)."""

    stripe_size: int
    servers: tuple  # server names, stripe order

    def __post_init__(self):
        if self.stripe_size <= 0:
            raise InvalidArgument(f"stripe_size must be positive: {self.stripe_size}")
        if not self.servers:
            raise InvalidArgument("stripe needs at least one server")

    @property
    def stripe_count(self) -> int:
        return len(self.servers)

    def server_of_chunk(self, chunk_index: int) -> str:
        """The server owning chunk *chunk_index* (round-robin)."""
        return self.servers[chunk_index % len(self.servers)]

    def _memo(self, kind: str) -> dict:
        """This spec's layout memo for *kind* (created lazily, attached
        outside the frozen dataclass fields so it never participates in
        equality or hashing)."""
        memo = self.__dict__.get(kind)
        if memo is None:
            memo = {}
            object.__setattr__(self, kind, memo)
        return memo


@dataclass(frozen=True)
class ChunkSlice:
    """One contiguous piece of a file range falling inside a single chunk."""

    chunk_index: int       # global chunk number within the file
    server: str            # owning server
    file_offset: int       # where this slice starts in the file
    chunk_offset: int      # where this slice starts within its chunk
    length: int            # slice length in bytes

    @property
    def file_end(self) -> int:
        return self.file_offset + self.length


def split_range(spec: StripeSpec, offset: int, length: int) -> List[ChunkSlice]:
    """Split file byte range ``[offset, offset+length)`` into chunk slices.

    Slices are returned in file order; adjacent slices on the same server
    are *not* merged (they are distinct chunks on the device). Pure:
    nothing is cached.
    """
    if offset < 0 or length < 0:
        raise InvalidArgument(f"invalid range: offset={offset} length={length}")
    slices: List[ChunkSlice] = []
    pos = offset
    end = offset + length
    size = spec.stripe_size
    while pos < end:
        chunk = pos // size
        chunk_off = pos - chunk * size
        take = min(end - pos, size - chunk_off)
        slices.append(ChunkSlice(
            chunk_index=chunk,
            server=spec.server_of_chunk(chunk),
            file_offset=pos,
            chunk_offset=chunk_off,
            length=take,
        ))
        pos += take
    return slices


def map_range(spec: StripeSpec, offset: int, length: int) -> List[ChunkSlice]:
    """:func:`split_range`, memoised on *spec*; treat the result as
    read-only."""
    memo = spec._memo("_range_memo")
    slices = memo.get((offset, length))
    if slices is None:
        slices = split_range(spec, offset, length)
        if len(memo) >= _MEMO_MAX:
            memo.clear()
        memo[(offset, length)] = slices
    return slices


def server_spans(spec: StripeSpec, offset: int,
                 length: int) -> Dict[str, Tuple[int, int]]:
    """Per-server ``(first_offset, total_bytes)`` of a file byte range.

    The aggregation clients use to split one logical I/O into one
    request per data server. Memoised on *spec*; a fresh dict is
    returned per call (callers may keep or discard it), built from a
    cached aggregate. A miss walks the chunks of :func:`split_range`
    with its arithmetic but builds no slice objects: the memo is per
    file, so a many-file workload misses once per file and range.
    """
    memo = spec._memo("_span_memo")
    spans = memo.get((offset, length))
    if spans is None:
        if offset < 0 or length < 0:
            raise InvalidArgument(
                f"invalid range: offset={offset} length={length}")
        spans = {}
        size = spec.stripe_size
        pos = offset
        end = offset + length
        while pos < end:
            chunk = pos // size
            take = min(end - pos, size - (pos - chunk * size))
            server = spec.server_of_chunk(chunk)
            span = spans.get(server)
            # Chunks come in file order: a server's first is its lowest.
            spans[server] = ((pos, take) if span is None
                             else (span[0], span[1] + take))
            pos += take
        if len(memo) >= _MEMO_MAX:
            memo.clear()
        memo[(offset, length)] = spans
    return dict(spans)
