"""Statistical token assignment: shares as segments of [0, 1] (§3).

"We divide the range [0, 1] into several segments, with the segment
length proportional to the token counts. Then an I/O worker draws a
random number within [0, 1]. The I/O request of a job is processed if
the random number falls in its corresponding segment."

:class:`TokenAssignment` is that segmentation: built from a share map,
it answers ``draw(u)`` by :func:`bisect.bisect_right` over the
cumulative segment boundaries. The token keeps no per-job state beyond
the shares. Opportunity fairness (unused cycles flow to jobs that can
use them) re-cuts [0, 1] over the backlogged jobs at every draw
(:meth:`TokenAssignment.draw_among`).

Both cuts are formed in pure Python in the order numpy would form
them: the total in numpy's pairwise summation order
(:func:`_pairwise_sum`), the boundaries left to right as ``np.cumsum``
adds them, the last one pinned to 1.0. So every draw is bit-identical
to the numpy seed implementation frozen in
``tests/core/test_seed_equivalence.py``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate
from typing import Dict, List, Sequence, Tuple

from ..errors import SchedulerError

__all__ = ["TokenAssignment"]


def _pairwise_sum(values: Sequence[float]) -> float:
    """Sum *values* in the exact order ``np.ndarray.sum`` uses.

    numpy's pairwise summation adds fewer than eight elements one after
    the other. Up to 128 (one block) it runs eight partial accumulators
    over the multiples of eight, combines them as ``((r0+r1)+(r2+r3)) +
    ((r4+r5)+(r6+r7))`` and adds the remainder one at a time. Above
    128 it sums two halves, cut at a multiple of eight, and adds the
    results. The built-in :func:`sum` is compensated from Python 3.12 and
    :func:`math.fsum` is exact, so neither reproduces it.
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    if n > 128:
        half = n // 2
        half -= half % 8
        return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])
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

    __slots__ = ("job_ids", "_shares", "_cum", "_index")

    def __init__(self, shares: Dict[int, float]):
        if not shares:
            raise SchedulerError("empty share map")
        items = sorted(shares.items())
        for job_id, share in items:
            if not 0.0 <= share < math.inf:
                raise SchedulerError(
                    f"share of job {job_id} must be finite and >= 0: {share}")
        values = [float(s) for _, s in items]
        total = _pairwise_sum(values)
        if not 0.0 < total < math.inf:
            raise SchedulerError(f"shares sum to {total}: {shares}")
        self.job_ids: List[int] = [job_id for job_id, _ in items]
        self._shares: List[float] = [v / total for v in values]
        self._cum: List[float] = list(accumulate(self._shares))
        self._cum[-1] = 1.0  # guard against floating-point shortfall
        self._index = {job_id: i for i, job_id in enumerate(self.job_ids)}

    # ----------------------------------------------------------------- draws
    def draw(self, u: float) -> int:
        """The job whose segment contains *u* (u in [0, 1))."""
        if not 0.0 <= u < 1.0:
            raise SchedulerError(f"draw needs u in [0, 1): {u}")
        return self.job_ids[bisect_right(self._cum, u)]

    def draw_among(self, jobs: Sequence[int], u: float) -> int:
        """The job of *jobs* whose segment contains *u* once [0, 1] is
        re-cut over *jobs* alone (opportunity fairness).

        *jobs* is sorted ascending. Each keeps its installed share; a
        job missing from the assignment or holding a zero share gets the
        mean share. The choice is the one ``TokenAssignment`` built from
        those shares would draw, bit for bit, without building it.
        """
        if not 0.0 <= u < 1.0:
            raise SchedulerError(f"draw needs u in [0, 1): {u}")
        if len(jobs) == 1:
            return jobs[0]
        index = self._index
        shares = self._shares
        mean_share = 1.0 / len(shares)
        values = []
        for job_id in jobs:
            i = index.get(job_id)
            share = shares[i] if i is not None else 0.0
            values.append(share if share > 0 else mean_share)
        total = _pairwise_sum(values)
        boundary = 0.0
        for k, value in enumerate(values):
            boundary += value / total
            if boundary > u:
                return jobs[k]
        return jobs[-1]  # the last boundary is 1.0 > u

    def segment(self, job_id: int) -> Tuple[float, float]:
        """The ``[lo, hi)`` segment assigned to *job_id*."""
        i = self._lookup(job_id)
        lo = self._cum[i - 1] if i > 0 else 0.0
        return lo, self._cum[i]

    def share(self, job_id: int) -> float:
        """The normalised share of *job_id*."""
        return self._shares[self._lookup(job_id)]

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
        return dict(zip(self.job_ids, self._shares))

    def __repr__(self) -> str:  # pragma: no cover
        parts = ", ".join(f"{j}:{s:.3f}" for j, s in self.as_dict().items())
        return f"<TokenAssignment {parts}>"
