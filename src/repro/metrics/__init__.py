"""Measurement utilities: throughput sampling, statistics, share timelines."""

from .faultstats import FaultStats
from .sampler import ThroughputSampler
from .stats import (jain_index, median_nonzero, scaling_efficiency,
                    share_ratio, size_fair_bound, slowdown, stddev_nonzero)
from .timeline import ShareTimeline, convergence_interval

__all__ = [
    "FaultStats",
    "ThroughputSampler",
    "median_nonzero",
    "stddev_nonzero",
    "size_fair_bound",
    "slowdown",
    "jain_index",
    "scaling_efficiency",
    "share_ratio",
    "ShareTimeline",
    "convergence_interval",
]
