"""Statistics used by the paper's evaluation.

Median/stddev of throughput series (Figs. 8, 12), slowdown relative to
an exclusive baseline (Figs. 1, 13), Jain's fairness index, and scaling
efficiency (Fig. 7).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ConfigError

__all__ = ["median_nonzero", "stddev_nonzero", "slowdown", "jain_index",
           "scaling_efficiency", "share_ratio", "size_fair_bound"]


def _active(values: Sequence[float]) -> np.ndarray:
    """The samples where the job was actually doing I/O (non-zero bins).

    Ramp-up/ramp-down zero bins would otherwise dominate medians of short
    runs; the paper's medians are over the active phase.
    """
    arr = np.asarray(values, dtype=float)
    return arr[arr > 0]


def median_nonzero(values: Sequence[float]) -> float:
    """Median over non-zero samples (0.0 if all zero)."""
    active = _active(values)
    return float(np.median(active)) if active.size else 0.0


def stddev_nonzero(values: Sequence[float]) -> float:
    """Population standard deviation over non-zero samples."""
    active = _active(values)
    return float(np.std(active)) if active.size else 0.0


def size_fair_bound(app_nodes: int, background_nodes: int = 1) -> float:
    """The paper's maximum-possible size-fair slowdown for an app sharing
    with a background job: the background's node-count share (§5.5's
    "1/65 = 1.5%" for 64-node NAMD), assuming the app were entirely I/O."""
    if app_nodes < 1 or background_nodes < 1:
        raise ConfigError("node counts must be >= 1")
    return background_nodes / (app_nodes + background_nodes)


def slowdown(baseline_time: float, measured_time: float) -> float:
    """Fractional slowdown: 0.10 means 10% slower than baseline."""
    if baseline_time <= 0:
        raise ConfigError(f"baseline_time must be positive: {baseline_time}")
    return measured_time / baseline_time - 1.0


def jain_index(values: Sequence[float]) -> float:
    """Jain's fairness index: 1 = perfectly even, 1/n = maximally unfair."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ConfigError("jain_index of empty sequence")
    denom = arr.size * np.sum(arr ** 2)
    if denom == 0:
        return 1.0
    return float(np.sum(arr) ** 2 / denom)


def scaling_efficiency(throughputs: Sequence[float],
                       nodes: Sequence[int]) -> np.ndarray:
    """Per-point efficiency vs. linear scaling from the first point.

    Fig. 7 reports e.g. 82% at 8 servers and 68% at 128 relative to the
    single-server throughput.
    """
    tp = np.asarray(throughputs, dtype=float)
    n = np.asarray(nodes, dtype=float)
    if tp.shape != n.shape or tp.size == 0:
        raise ConfigError("throughputs and nodes must be equal-length, non-empty")
    if tp[0] <= 0 or n[0] <= 0:
        raise ConfigError("first point must be positive")
    per_node_ref = tp[0] / n[0]
    return tp / (n * per_node_ref)


def share_ratio(a: float, b: float) -> float:
    """Throughput ratio a/b (Fig. 8a's '3.96x')."""
    if b <= 0:
        raise ConfigError(f"denominator must be positive: {b}")
    return a / b
