"""Throughput sampling.

The paper reports "measured I/O throughput with samples taken at
1-second intervals" (Fig. 8). The sampler records every completed
request as ``(time, job_id, bytes, op)`` and bins on demand with numpy,
so recording stays O(1) on the hot path.

Aggregate queries never re-scan the record stream: byte totals and op
counts are maintained incrementally at :meth:`record` time, and
per-record cumulative byte prefixes let :meth:`window_throughput`
answer any ``[t0, t1)`` window with two binary searches (completion
times arrive in nondecreasing simulation order).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = ["ThroughputSampler", "CompletionRecord"]

CompletionRecord = Tuple[float, int, int, str]  # (time, job_id, nbytes, op)


class ThroughputSampler:
    """Accumulates request completions; produces binned throughput series."""

    def __init__(self) -> None:
        self._n = 0
        self._times: List[float] = []
        self._jobs: List[int] = []
        self._bytes: List[int] = []
        self._ops: List[str] = []
        # Incremental aggregates (satisfy totals/counts without scans).
        self._total_bytes = 0
        self._job_bytes: Dict[int, int] = {}
        self._job_op_counts: Counter = Counter()  # (job_id, op) -> n
        # Cumulative bytes after each record, per job and globally, for
        # O(log n) window queries (parallel to the per-job time lists).
        self._cum_bytes: List[int] = []
        self._job_times: Dict[int, List[float]] = {}
        self._job_cum_bytes: Dict[int, List[int]] = {}

    def record(self, now: float, job_id: int, nbytes: int, op: str) -> None:
        """Record one completed request."""
        self._n += 1
        self._total_bytes += nbytes
        self._job_bytes[job_id] = self._job_bytes.get(job_id, 0) + nbytes
        self._job_op_counts[(job_id, op)] += 1
        self._times.append(now)
        self._jobs.append(job_id)
        self._bytes.append(nbytes)
        self._ops.append(op)
        self._cum_bytes.append(self._total_bytes)
        times = self._job_times.get(job_id)
        if times is None:
            times = self._job_times[job_id] = []
            self._job_cum_bytes[job_id] = []
        times.append(now)
        self._job_cum_bytes[job_id].append(self._job_bytes[job_id])

    def __len__(self) -> int:
        return self._n

    # ------------------------------------------------------------------ reads
    def job_ids(self) -> List[int]:
        """Distinct job ids observed, sorted."""
        return sorted(self._job_bytes)

    def total_bytes(self, job_id: Optional[int] = None) -> int:
        """Total recorded bytes (optionally for one job)."""
        if job_id is None:
            return self._total_bytes
        return self._job_bytes.get(job_id, 0)

    def op_count(self, job_id: Optional[int] = None,
                 op: Optional[str] = None) -> int:
        """Number of completions, filtered by job and/or op kind.

        Served from the incrementally maintained ``(job, op)`` counter —
        O(distinct job/op pairs), never O(records).
        """
        if job_id is not None and op is not None:
            return self._job_op_counts[(job_id, op)]
        return sum(n for (j, o), n in self._job_op_counts.items()
                   if (job_id is None or j == job_id)
                   and (op is None or o == op))

    def series(self, job_id: Optional[int] = None, interval: float = 1.0,
               start: float = 0.0,
               end: Optional[float] = None) -> Tuple[np.ndarray, np.ndarray]:
        """Binned throughput: ``(bin_starts, bytes_per_second)``.

        *job_id* None aggregates all jobs. Bins cover ``[start, end)``;
        *end* defaults to the last completion time.
        """
        times = np.asarray(self._times)
        sizes = np.asarray(self._bytes, dtype=float)
        if job_id is not None:
            mask = np.asarray(self._jobs) == job_id
            times, sizes = times[mask], sizes[mask]
        if end is None:
            end = (float(times.max()) + interval if times.size
                   else start + interval)
        n_bins = max(1, int(np.ceil((end - start) / interval)))
        edges = start + np.arange(n_bins + 1) * interval
        binned, _ = np.histogram(times, bins=edges, weights=sizes)
        return edges[:-1], binned / interval

    def window_throughput(self, t0: float, t1: float,
                          job_id: Optional[int] = None) -> float:
        """Mean bytes/second over ``[t0, t1)``.

        O(log n): two binary searches over the (nondecreasing) record
        times bracket the window, and the cumulative-byte prefixes give
        the windowed sum by subtraction.
        """
        if t1 <= t0:
            return 0.0
        if job_id is None:
            times, cum = self._times, self._cum_bytes
        else:
            times = self._job_times.get(job_id)
            if times is None:
                return 0.0
            cum = self._job_cum_bytes[job_id]
        lo = bisect_left(times, t0)
        hi = bisect_left(times, t1)
        if hi <= lo:
            return 0.0
        total = cum[hi - 1] - (cum[lo - 1] if lo > 0 else 0)
        return total / (t1 - t0)
