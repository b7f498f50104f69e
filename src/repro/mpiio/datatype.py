"""File-view datatypes for the MPI-IO layer.

The paper's applications reach the burst buffer through "I/O libraries
such as MPI-IO" (§2.1). MPI's expressiveness comes from *file views*:
each rank sees a (possibly strided) subset of the file. This module
provides the view the collective layer needs — the ROMIO-style vector —
as a generator of ``(offset, size)`` pieces, plus interval utilities
used by the two-phase aggregator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

from ..errors import ConfigError

__all__ = ["VectorView", "coalesce", "total_bytes"]

Piece = Tuple[int, int]  # (file offset, length)


@dataclass(frozen=True)
class VectorView:
    """Rank-interleaved strided access (MPI_Type_vector semantics).

    Each *round* of the pattern lays ranks' blocks out at stride
    ``nranks * blocklen``: rank i owns
    ``[disp + (round*nranks + i) * blocklen, +blocklen)`` — the
    row-of-a-2D-array decomposition two-phase I/O exists for.
    """

    nranks: int
    blocklen: int
    disp: int = 0

    def __post_init__(self):
        if self.nranks < 1 or self.blocklen <= 0 or self.disp < 0:
            raise ConfigError("nranks >= 1, blocklen > 0, disp >= 0 required")

    def pieces(self, rank: int, count: int = 1) -> List[Piece]:
        """The strided pieces rank *rank* touches over *count* rounds."""
        if not 0 <= rank < self.nranks:
            raise ConfigError(f"rank {rank} outside [0, {self.nranks})")
        if count < 1:
            raise ConfigError("count >= 1 required")
        stride = self.nranks * self.blocklen
        return [(self.disp + r * stride + rank * self.blocklen, self.blocklen)
                for r in range(count)]


def coalesce(pieces: Iterable[Piece]) -> List[Piece]:
    """Merge adjacent/overlapping pieces into maximal contiguous runs."""
    items = sorted(pieces)
    merged: List[Piece] = []
    for offset, length in items:
        if length <= 0:
            raise ConfigError(f"non-positive piece length: {length}")
        if merged and offset <= merged[-1][0] + merged[-1][1]:
            last_off, last_len = merged[-1]
            merged[-1] = (last_off,
                          max(last_off + last_len, offset + length) - last_off)
        else:
            merged.append((offset, length))
    return merged


def total_bytes(pieces: Iterable[Piece]) -> int:
    """Sum of piece lengths (pieces assumed disjoint)."""
    return sum(length for _, length in pieces)
