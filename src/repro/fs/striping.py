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
from typing import Dict, List, Tuple, Union

from ..errors import InvalidArgument

__all__ = ["StripeSpec", "ErasureSpec", "ChunkSlice", "ParitySlice",
           "split_range", "map_range", "server_spans", "parity_slices",
           "parity_spans", "group_range"]

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
class ErasureSpec:
    """Erasure-coded layout: ``k`` data + ``n - k`` parity shares per group.

    A *group* is ``k`` consecutive file chunks (``group_bytes`` =
    ``k * stripe_size`` of logical data) plus ``m = n - k`` parity
    shares. Share ``s`` of group ``g`` lives on
    ``servers[(g + s) % n]`` — the rotation spreads parity load evenly
    — so all ``n`` shares of a group land on distinct servers and any
    ``n - k`` simultaneous server losses leave ``k`` decodable shares.

    ``server_of_chunk`` follows the same rotation for data chunks, which
    makes :func:`map_range` / :func:`server_spans` work unchanged for
    both spec kinds (a data chunk *is* a share).
    """

    stripe_size: int
    servers: tuple  # n distinct server names
    k: int          # data shares per group

    def __post_init__(self):
        if self.stripe_size <= 0:
            raise InvalidArgument(
                f"stripe_size must be positive: {self.stripe_size}")
        n = len(self.servers)
        if len(set(self.servers)) != n:
            raise InvalidArgument(
                f"erasure servers must be distinct: {self.servers}")
        if not 1 <= self.k < n:
            raise InvalidArgument(
                f"need 1 <= k < n servers: k={self.k} n={n}")
        if n > 256:
            raise InvalidArgument(f"GF(256) limits n to 256: {n}")

    @property
    def n(self) -> int:
        return len(self.servers)

    @property
    def m(self) -> int:
        """Parity shares per group (the survivable loss count)."""
        return len(self.servers) - self.k

    @property
    def stripe_count(self) -> int:
        return len(self.servers)

    @property
    def group_bytes(self) -> int:
        """Logical data bytes per group."""
        return self.k * self.stripe_size

    def server_of_share(self, group: int, share_index: int) -> str:
        """The server holding share *share_index* of group *group*."""
        return self.servers[(group + share_index) % len(self.servers)]

    def server_of_chunk(self, chunk_index: int) -> str:
        """The server owning data chunk *chunk_index* (share
        ``chunk_index % k`` of group ``chunk_index // k``)."""
        return self.server_of_share(chunk_index // self.k,
                                    chunk_index % self.k)

    def share_of_server(self, group: int, server: str) -> int:
        """The share index *server* holds in *group* (raises if none)."""
        pos = self.servers.index(server)
        return (pos - group) % len(self.servers)

    def parity_chunk_index(self, group: int, share_index: int) -> int:
        """Backend chunk key of a parity share (negative: parity shares
        live outside the file's data chunk index space)."""
        return -(group * self.m + (share_index - self.k) + 1)

    def data_chunk_index(self, group: int, share_index: int) -> int:
        """Backend chunk key of a data share (a plain file chunk)."""
        return group * self.k + share_index

    def chunk_index_of_share(self, group: int, share_index: int) -> int:
        """Backend chunk key of any share of *group*."""
        if share_index < self.k:
            return self.data_chunk_index(group, share_index)
        return self.parity_chunk_index(group, share_index)

    def n_groups(self, size: int) -> int:
        """Groups covering a file of *size* logical bytes."""
        if size <= 0:
            return 0
        return (size + self.group_bytes - 1) // self.group_bytes

    def _memo(self, kind: str) -> dict:
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


#: Either layout kind; both expose stripe_size / server_of_chunk /
#: stripe_count, so the range-splitting functions serve both.
AnySpec = Union[StripeSpec, "ErasureSpec"]


def split_range(spec: AnySpec, offset: int, length: int) -> List[ChunkSlice]:
    """Split file byte range ``[offset, offset+length)`` into chunk slices.

    Slices are returned in file order; adjacent slices on the same server
    are *not* merged (they are distinct chunks on the device). Works for
    both :class:`StripeSpec` and :class:`ErasureSpec` (data shares only —
    parity placement is :func:`parity_slices`). Pure: nothing is cached.
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


def map_range(spec: AnySpec, offset: int, length: int) -> List[ChunkSlice]:
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


def server_spans(spec: AnySpec, offset: int,
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


# ----------------------------------------------------------- erasure layout
@dataclass(frozen=True)
class ParitySlice:
    """One parity share touched by a write to a stripe group."""

    group: int         # stripe group index
    share_index: int   # k .. n-1
    server: str        # holding server
    chunk_index: int   # backend chunk key (negative)
    length: int        # parity bytes the write dirties in this share


def group_range(spec: ErasureSpec, offset: int, length: int
                ) -> List[Tuple[int, int]]:
    """``(group, overlap_bytes)`` for every group a byte range touches."""
    if offset < 0 or length < 0:
        raise InvalidArgument(f"invalid range: offset={offset} length={length}")
    if length == 0:
        return []
    gb = spec.group_bytes
    end = offset + length
    out = []
    for g in range(offset // gb, (end - 1) // gb + 1):
        lo = max(offset, g * gb)
        hi = min(end, (g + 1) * gb)
        out.append((g, hi - lo))
    return out


def parity_slices(spec: ErasureSpec, offset: int,
                  length: int) -> List[ParitySlice]:
    """Parity shares a write to ``[offset, offset+length)`` must update.

    One slice per (touched group, parity share). The dirtied parity
    length is the share-aligned footprint of the write within the
    group, ``min(stripe_size, overlap)``: parity bytes cover the union
    of per-share chunk offsets the data write touched.
    """
    slices = []
    size = spec.stripe_size
    for group, overlap in group_range(spec, offset, length):
        dirty = min(size, overlap)
        for share_index in range(spec.k, spec.n):
            slices.append(ParitySlice(
                group=group,
                share_index=share_index,
                server=spec.server_of_share(group, share_index),
                chunk_index=spec.parity_chunk_index(group, share_index),
                length=dirty,
            ))
    return slices


def parity_spans(spec: ErasureSpec, offset: int, length: int
                 ) -> Dict[str, Tuple[int, int, Tuple[int, ...]]]:
    """Per-server parity traffic of a write: ``(anchor_offset,
    total_bytes, groups)``.

    The client-side aggregation mirroring :func:`server_spans` for the
    parity half of an erasure write: one request per parity server,
    carrying the group list so the serving side can rebuild exactly
    those parity chunks.
    """
    spans: Dict[str, Tuple[int, int, List[int]]] = {}
    gb = spec.group_bytes
    for piece in parity_slices(spec, offset, length):
        anchor = piece.group * gb
        first, total, groups = spans.get(piece.server, (anchor, 0, []))
        if piece.group not in groups:
            groups.append(piece.group)
        spans[piece.server] = (min(first, anchor), total + piece.length,
                               groups)
    return {server: (first, total, tuple(groups))
            for server, (first, total, groups) in spans.items()}
