"""Statistical token assignment: shares as segments of [0, 1] (§3).

"We divide the range [0, 1] into several segments, with the segment
length proportional to the token counts. Then an I/O worker draws a
random number within [0, 1]. The I/O request of a job is processed if
the random number falls in its corresponding segment."

:class:`TokenAssignment` is that segmentation: built from a share map,
it answers ``draw(u)`` in O(log n) via a cumulative-boundary search.
The scheduler rebuilds it over the backlogged subset — the mechanism
behind *opportunity fairness* (unused cycles flow to jobs that can use
them).

``draw`` is the server's per-request hot path. Below
:data:`SMALL_N_THRESHOLD` jobs — which covers every population the
paper actually runs — a ``np.searchsorted`` call is dominated by numpy's
per-call dispatch overhead, so the search runs as pure-Python
:func:`bisect.bisect_right` over a prebuilt cumulative list instead.
The boundaries are still computed with numpy (identical floating-point
results either way, since ``tolist()`` round-trips float64 exactly), so
both search paths return bit-identical choices.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import SchedulerError

__all__ = ["TokenAssignment", "SMALL_N_THRESHOLD"]

#: Population size below which ``draw`` uses pure-Python bisect; numpy's
#: call overhead only amortises above roughly this many jobs.
SMALL_N_THRESHOLD = 128


def _pairwise_sum(values: List[float]) -> float:
    """Sum *values* in the exact order ``np.ndarray.sum`` uses.

    numpy's pairwise summation processes blocks of eight with eight
    partial accumulators, then combines them as ``((r0+r1)+(r2+r3)) +
    ((r4+r5)+(r6+r7))``; below eight elements it is a plain sequential
    sum. Replicating that order keeps the pure-Python constructor
    bit-identical to the numpy one. Only valid for ``len(values) <=
    128`` (one numpy block) — larger inputs take the numpy path anyway.
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    r0, r1, r2, r3, r4, r5, r6, r7 = values[:8]
    i = 8
    limit = n - (n % 8)
    while i < limit:
        r0 += values[i]
        r1 += values[i + 1]
        r2 += values[i + 2]
        r3 += values[i + 3]
        r4 += values[i + 4]
        r5 += values[i + 5]
        r6 += values[i + 6]
        r7 += values[i + 7]
        i += 8
    total = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    while i < n:
        total += values[i]
        i += 1
    return total


class TokenAssignment:
    """An immutable partition of [0, 1] into per-job segments."""

    __slots__ = ("job_ids", "_shares_arr", "_cum", "_cum_list",
                 "_shares_list", "_small", "_index", "_source_items")

    def __init__(self, shares: Dict[int, float]):
        if not shares:
            raise SchedulerError("empty share map")
        items = sorted(shares.items())
        values = np.array([s for _, s in items], dtype=float)
        if np.any(values < 0):
            raise SchedulerError(f"negative share in {shares}")
        total = values.sum()
        if total <= 0:
            raise SchedulerError(f"shares sum to zero: {shares}")
        self.job_ids: List[int] = [job_id for job_id, _ in items]
        self._shares_arr: Optional[np.ndarray] = values / total
        self._cum = np.cumsum(self._shares_arr)
        self._cum[-1] = 1.0  # guard against floating-point shortfall
        self._cum_list: List[float] = self._cum.tolist()
        self._shares_list: List[float] = self._shares_arr.tolist()
        self._small = len(self.job_ids) < SMALL_N_THRESHOLD
        self._index = {job_id: i for i, job_id in enumerate(self.job_ids)}
        # Raw constructor input, kept so the scheduler can recognise a
        # reinstall of identical shares (see :meth:`same_source`).
        self._source_items: Optional[Tuple[Tuple[int, float], ...]] = \
            tuple(items)

    @property
    def shares(self) -> np.ndarray:
        """Normalised per-job shares, ordered like :attr:`job_ids`."""
        if self._shares_arr is None:
            self._shares_arr = np.asarray(self._shares_list)
        return self._shares_arr

    @classmethod
    def _from_backlog(cls, job_ids: List[int],
                      values: List[float]) -> "TokenAssignment":
        """Internal fast constructor for the scheduler's restricted draws.

        *job_ids* must be sorted ascending and *values* positive — the
        scheduler guarantees both, so validation and re-sorting are
        skipped. Below :data:`SMALL_N_THRESHOLD` the normalisation runs
        in pure Python with :func:`_pairwise_sum` so the resulting
        segment boundaries are bit-identical to ``TokenAssignment(dict)``
        without any numpy dispatch on the per-dequeue cache-miss path.
        """
        self = object.__new__(cls)
        self.job_ids = job_ids
        n = len(job_ids)
        if n < SMALL_N_THRESHOLD:
            total = _pairwise_sum(values)
            shares_list = [v / total for v in values]
            cum_list = []
            acc = 0.0
            for s in shares_list:
                acc += s  # cumsum boundaries, bit-identical to numpy
                cum_list.append(acc)
            cum_list[-1] = 1.0  # guard against floating-point shortfall
            self._shares_arr = None  # materialised lazily by .shares
            self._cum = None  # large-n search path unused below threshold
            self._cum_list = cum_list
            self._shares_list = shares_list
            self._small = True
        else:
            arr = np.array(values, dtype=float)
            self._shares_arr = arr / arr.sum()
            self._cum = np.cumsum(self._shares_arr)
            self._cum[-1] = 1.0
            self._cum_list = self._cum.tolist()
            self._shares_list = self._shares_arr.tolist()
            self._small = False
        self._index = {job_id: i for i, job_id in enumerate(job_ids)}
        self._source_items = None  # restricted draws are never reinstalled
        return self

    def same_source(self, shares: Dict[int, float]) -> bool:
        """True if constructing from *shares* would reproduce this object
        bit for bit (i.e. the raw constructor input is identical).

        Lets the scheduler skip a reinstall — and keep its warm draw
        caches — when the controller re-derives an unchanged share map.
        """
        source = self._source_items
        if source is None or len(shares) != len(source):
            return False
        return sorted(shares.items()) == list(source)

    # ----------------------------------------------------------------- draws
    def draw(self, u: float) -> int:
        """The job whose segment contains *u* (u in [0, 1))."""
        if not 0.0 <= u < 1.0:
            raise SchedulerError(f"draw needs u in [0, 1): {u}")
        if self._small:
            idx = bisect_right(self._cum_list, u)
        else:
            idx = int(np.searchsorted(self._cum, u, side="right"))
        return self.job_ids[min(idx, len(self.job_ids) - 1)]

    def segment(self, job_id: int) -> Tuple[float, float]:
        """The ``[lo, hi)`` segment assigned to *job_id*."""
        i = self._lookup(job_id)
        lo = self._cum_list[i - 1] if i > 0 else 0.0
        return lo, self._cum_list[i]

    def share(self, job_id: int) -> float:
        """The normalised share of *job_id*."""
        return self._shares_list[self._lookup(job_id)]

    def _lookup(self, job_id: int) -> int:
        try:
            return self._index[job_id]
        except KeyError:
            raise SchedulerError(f"job {job_id} not in assignment") from None

    def __contains__(self, job_id: int) -> bool:
        return job_id in self._index

    def __len__(self) -> int:
        return len(self.job_ids)

    def as_dict(self) -> Dict[int, float]:
        """The assignment as a plain ``{job_id: share}`` map."""
        return {job_id: float(s) for job_id, s in zip(self.job_ids, self.shares)}

    def __repr__(self) -> str:  # pragma: no cover
        parts = ", ".join(f"{j}:{s:.3f}" for j, s in self.as_dict().items())
        return f"<TokenAssignment {parts}>"
