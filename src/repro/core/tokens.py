"""Statistical token assignment: shares as segments of [0, 1] (§3).

"We divide the range [0, 1] into several segments, with the segment
length proportional to the token counts. Then an I/O worker draws a
random number within [0, 1]. The I/O request of a job is processed if
the random number falls in its corresponding segment."

:class:`TokenAssignment` is that segmentation: built from a share map,
it answers ``draw(u)`` by :func:`bisect.bisect_right` over the
cumulative segment boundaries. The token keeps no per-job state beyond
the shares. Opportunity fairness (unused cycles flow to jobs that can
use them) re-cuts [0, 1] over the backlogged jobs
(:meth:`TokenAssignment.cut`); the scheduler keeps that cut until the
backlog's membership or the installed assignment changes, and a draw
between is one bisect over it.

Both cuts are formed in pure Python in the order numpy would form
them: the total in numpy's pairwise summation order
(:func:`_pairwise_sum`), the boundaries left to right as ``np.cumsum``
adds them, the last one pinned to 1.0. So every draw is bit-identical
to the numpy seed implementation frozen in
``tests/core/test_seed_equivalence.py``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import accumulate, compress, repeat
from operator import not_, truediv
from typing import Dict, Iterable, List, Sequence, Tuple

from ..errors import SchedulerError

__all__ = ["TokenAssignment", "ordered_sum"]


def ordered_sum(values: Iterable[float]) -> float:
    """Add *values* one after the other, left to right, from ``0``.

    This is the built-in :func:`sum` up to Python 3.11, bit for bit.
    From 3.12 the built-in compensates float rounding, so the same
    shares would give different simulated floats on a newer Python;
    every float sum that reaches the model or a pinned table goes
    through here instead. (Integer sums keep the built-in.)
    """
    total = 0
    for value in values:
        total += value
    return total


def _pairwise_sum(values: Sequence[float]) -> float:
    """Sum *values* in the exact order ``np.ndarray.sum`` uses.

    numpy's pairwise summation adds fewer than eight elements one after
    the other. Up to 128 (one block) it runs eight partial accumulators
    over the multiples of eight, combines them as ``((r0+r1)+(r2+r3)) +
    ((r4+r5)+(r6+r7))`` and adds the remainder one at a time. Above
    128 it sums two halves, cut at a multiple of eight, and adds the
    results. :func:`ordered_sum` adds left to right, the built-in
    :func:`sum` is compensated from Python 3.12 and :func:`math.fsum` is
    exact, so none of them reproduces it.
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

    __slots__ = ("job_ids", "_shares", "_cum", "_value_of", "_mean")

    def __init__(self, shares: Dict[int, float]):
        if not shares:
            raise SchedulerError("empty share map")
        job_ids = sorted(shares)
        raw = list(map(shares.__getitem__, job_ids))
        values = list(map(float, raw))
        total = _pairwise_sum(values)
        # ``min`` / ``max`` pass a NaN by; the total does not.
        if not (0.0 <= min(raw) and max(raw) < math.inf and total == total):
            for job_id, share in zip(job_ids, raw):
                if not 0.0 <= share < math.inf:
                    raise SchedulerError(f"share of job {job_id} must be "
                                         f"finite and >= 0: {share}")
        if not 0.0 < total < math.inf:
            raise SchedulerError(f"shares sum to {total}: {shares}")
        self.job_ids: List[int] = job_ids
        self._shares: List[float] = list(map(truediv, values, repeat(total)))
        self._cum: List[float] = list(accumulate(self._shares))
        self._cum[-1] = 1.0  # guard against floating-point shortfall
        # What a job holds in a re-cut: its share, or the mean share
        # when it holds none (as a job outside the map does).
        self._mean = mean = 1.0 / len(job_ids)
        self._value_of: Dict[int, float] = dict(zip(job_ids, self._shares))
        for job_id in compress(job_ids, map(not_, self._shares)):
            self._value_of[job_id] = mean

    # ----------------------------------------------------------------- draws
    def draw(self, u: float) -> int:
        """The job whose segment contains *u* (u in [0, 1))."""
        if not 0.0 <= u < 1.0:
            raise SchedulerError(f"draw needs u in [0, 1): {u}")
        return self.job_ids[bisect_right(self._cum, u)]

    def cut(self, jobs: Sequence[int]) -> List[float]:
        """The boundaries of [0, 1] re-cut over *jobs* alone
        (opportunity fairness): ``jobs[bisect_right(cut, u)]`` is the
        job whose segment contains *u*.

        *jobs* is sorted ascending and not empty. Each keeps its
        installed share; a job missing from the assignment or holding a
        zero share gets the mean share. The boundaries are the ones a
        ``TokenAssignment`` built from those shares would hold, bit for
        bit, without building it.
        """
        values = list(map(self._value_of.get, jobs, repeat(self._mean)))
        total = _pairwise_sum(values)
        cum = list(accumulate(map(truediv, values, repeat(total))))
        cum[-1] = 1.0  # guard against floating-point shortfall
        return cum

    def segment(self, job_id: int) -> Tuple[float, float]:
        """The ``[lo, hi)`` segment assigned to *job_id*."""
        if job_id not in self._value_of:
            raise SchedulerError(f"job {job_id} not in assignment")
        i = bisect_left(self.job_ids, job_id)
        lo = self._cum[i - 1] if i > 0 else 0.0
        return lo, self._cum[i]

    def share(self, job_id: int) -> float:
        """The normalised share of *job_id*."""
        if job_id not in self._value_of:
            raise SchedulerError(f"job {job_id} not in assignment")
        return self._shares[bisect_left(self.job_ids, job_id)]

    def __contains__(self, job_id: int) -> bool:
        return job_id in self._value_of

    def __len__(self) -> int:
        return len(self.job_ids)

    def as_dict(self) -> Dict[int, float]:
        """The assignment as a plain ``{job_id: share}`` map."""
        return dict(zip(self.job_ids, self._shares))

    def __repr__(self) -> str:  # pragma: no cover
        parts = ", ".join(f"{j}:{s:.3f}" for j, s in self.as_dict().items())
        return f"<TokenAssignment {parts}>"
