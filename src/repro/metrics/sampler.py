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

Long runs (multi-hour fault scenarios) can cap memory with
``bin_interval``: completions are then folded into fixed-width time
bins on the fly instead of kept as raw records, so memory scales with
simulated duration / ``bin_interval`` rather than with the request
count. Binned mode trades record-level resolution for that bound —
series and window queries answer at ``bin_interval`` granularity.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import ConfigError

__all__ = ["ThroughputSampler", "CompletionRecord"]

CompletionRecord = Tuple[float, int, int, str]  # (time, job_id, nbytes, op)


class ThroughputSampler:
    """Accumulates request completions; produces binned throughput series.

    With ``bin_interval=None`` (the default) every completion is kept as
    a raw record — full resolution, memory grows with the request count.
    With a positive ``bin_interval`` completions are merged into
    per-``bin_interval`` byte totals at record time (bounded memory).
    """

    def __init__(self, bin_interval: Optional[float] = None):
        if bin_interval is not None and bin_interval <= 0:
            raise ConfigError(
                f"bin_interval must be positive: {bin_interval}")
        self.bin_interval = bin_interval
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
        # Binned mode state: bin index -> bytes, globally and per job.
        self._total_bins: Dict[int, float] = {}
        self._job_bins: Dict[int, Dict[int, float]] = {}
        self._last_time = 0.0

    def record(self, now: float, job_id: int, nbytes: int, op: str) -> None:
        """Record one completed request."""
        self._n += 1
        self._total_bytes += nbytes
        self._job_bytes[job_id] = self._job_bytes.get(job_id, 0) + nbytes
        self._job_op_counts[(job_id, op)] += 1
        if self.bin_interval is not None:
            b = int(now // self.bin_interval)
            self._total_bins[b] = self._total_bins.get(b, 0.0) + nbytes
            job_bins = self._job_bins.setdefault(job_id, {})
            job_bins[b] = job_bins.get(b, 0.0) + nbytes
            if now > self._last_time:
                self._last_time = now
            return
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

    def _bin_points(self, job_id: Optional[int]
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """Binned-mode records as (bin-center times, bytes) point masses."""
        bins = (self._total_bins if job_id is None
                else self._job_bins.get(job_id, {}))
        if not bins:
            return np.empty(0), np.empty(0)
        idx = np.fromiter(bins.keys(), dtype=float, count=len(bins))
        vals = np.fromiter(bins.values(), dtype=float, count=len(bins))
        return (idx + 0.5) * self.bin_interval, vals

    def series(self, job_id: Optional[int] = None, interval: float = 1.0,
               start: float = 0.0,
               end: Optional[float] = None) -> Tuple[np.ndarray, np.ndarray]:
        """Binned throughput: ``(bin_starts, bytes_per_second)``.

        *job_id* None aggregates all jobs. Bins cover ``[start, end)``;
        *end* defaults to the last completion time. In on-the-fly
        binning mode each stored bin contributes at its centre time, so
        the answer is exact when *interval* is a multiple of
        ``bin_interval`` and approximate below that resolution. A
        simulation rarely ends on a ``bin_interval`` boundary, so the
        final stored bin is usually partial; the default *end* is pushed
        past that bin's centre to flush it into the series — without
        this, any *interval* finer than ``bin_interval`` would silently
        drop the tail bytes recorded after the last full bin.
        """
        if self.bin_interval is not None:
            times, sizes = self._bin_points(job_id)
            if end is None:
                if times.size:
                    # times.max() is the last (possibly partial) bin's
                    # centre; covering centre + bin_interval/2 closes
                    # out that bin regardless of how fine *interval* is.
                    end = max(self._last_time + interval,
                              float(times.max()) + 0.5 * self.bin_interval)
                else:
                    end = start + interval
        else:
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

    def per_job_series(self, interval: float = 1.0, start: float = 0.0,
                       end: Optional[float] = None
                       ) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
        """Binned series for every observed job."""
        return {job_id: self.series(job_id, interval, start, end)
                for job_id in self.job_ids()}

    def window_throughput(self, t0: float, t1: float,
                          job_id: Optional[int] = None) -> float:
        """Mean bytes/second over ``[t0, t1)``.

        Raw mode is O(log n): two binary searches over the
        (nondecreasing) record times bracket the window, and the
        cumulative-byte prefixes give the windowed sum by subtraction.
        Binned mode apportions each stored bin by its fractional overlap
        with the window (exact at ``bin_interval`` resolution). The bin
        containing the last completion is treated as spanning only up to
        that completion time — a simulation rarely ends on a bin
        boundary, and spreading the tail bytes across the full bin width
        would under-count any window that covers the whole recording.
        """
        if t1 <= t0:
            return 0.0
        if self.bin_interval is not None:
            return self._binned_window(t0, t1, job_id)
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

    def _binned_window(self, t0: float, t1: float,
                       job_id: Optional[int]) -> float:
        bins = (self._total_bins if job_id is None
                else self._job_bins.get(job_id))
        if not bins:
            return 0.0
        w = self.bin_interval
        last = self._last_time
        lo_bin = int(t0 // w)
        hi_bin = int(np.ceil(t1 / w))

        def contrib(b: int, nbytes: float) -> float:
            lo = b * w
            hi = min((b + 1) * w, last)
            # Bins exist only for times <= last, so lo <= last always;
            # the clamp truncates exactly one bin — the one holding the
            # final completion. If that leaves a zero-width span (all of
            # the bin's records landed exactly on its left edge), the
            # bytes are a point mass at lo, counted iff the half-open
            # window covers that instant.
            if hi <= lo:
                return nbytes if t0 <= lo < t1 else 0.0
            overlap = min(t1, hi) - max(t0, lo)
            if overlap <= 0:
                return 0.0
            return nbytes * (overlap / (hi - lo))

        total = 0.0
        if hi_bin - lo_bin < len(bins):
            get = bins.get
            for b in range(lo_bin, hi_bin):
                nbytes = get(b)
                if nbytes:
                    total += contrib(b, nbytes)
        else:
            for b, nbytes in bins.items():
                total += contrib(b, nbytes)
        return total / (t1 - t0)
