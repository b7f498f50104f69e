"""Per-job share timelines for the λ-delayed fairness experiment.

Fig. 14 plots "the sharing percentage of each job's I/O usage" over
time. :class:`ShareTimeline` turns completion records into per-interval
usage fractions, and :func:`convergence_interval` finds when the
observed split first matches the fair split.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..errors import ConfigError
from .sampler import ThroughputSampler

__all__ = ["ShareTimeline", "convergence_interval"]


class ShareTimeline:
    """Per-interval fraction of total served bytes attributed to each job."""

    def __init__(self, sampler: ThroughputSampler, interval: float,
                 start: float = 0.0, end: Optional[float] = None):
        if interval <= 0:
            raise ConfigError(f"interval must be positive: {interval}")
        self.interval = interval
        self.job_ids = sampler.job_ids()
        series = {job_id: sampler.series(job_id, interval, start, end)[1]
                  for job_id in self.job_ids}
        if series:
            n = max(len(v) for v in series.values())
            self._matrix = np.zeros((len(self.job_ids), n))
            for row, job_id in enumerate(self.job_ids):
                v = series[job_id]
                self._matrix[row, :len(v)] = v
        else:
            self._matrix = np.zeros((0, 0))

    def shares_at(self, index: int) -> Dict[int, float]:
        """Observed job shares (fractions summing to 1) in interval *index*."""
        column = self._matrix[:, index]
        total = column.sum()
        if total <= 0:
            return {job_id: 0.0 for job_id in self.job_ids}
        return {job_id: float(v / total)
                for job_id, v in zip(self.job_ids, column)}

    def share_series(self, job_id: int) -> np.ndarray:
        """One job's observed share per interval, as an array."""
        row = self.job_ids.index(job_id)
        totals = self._matrix.sum(axis=0)
        with np.errstate(invalid="ignore", divide="ignore"):
            shares = np.where(totals > 0, self._matrix[row] / totals, 0.0)
        return shares

    @property
    def n_intervals(self) -> int:
        return self._matrix.shape[1]


def convergence_interval(timeline: ShareTimeline,
                         fair_shares: Dict[int, float],
                         tolerance: float = 0.1,
                         sustain: int = 2) -> Optional[int]:
    """First interval index from which observed shares stay within
    *tolerance* (total variation) of *fair_shares* for *sustain*
    consecutive intervals. None if never reached.
    """
    if sustain < 1:
        raise ConfigError("sustain must be >= 1")
    good_run = 0
    for idx in range(timeline.n_intervals):
        observed = timeline.shares_at(idx)
        tv = 0.5 * sum(abs(observed.get(k, 0.0) - fair_shares.get(k, 0.0))
                       for k in sorted(set(observed) | set(fair_shares)))
        total = sum(observed.values())
        if total > 0 and tv <= tolerance:
            good_run += 1
            if good_run >= sustain:
                return idx - sustain + 1
        else:
            good_run = 0
    return None
