"""Workload framework.

A :class:`Workload` describes what every application *stream* (one
process's I/O loop) does. The harness instantiates, per job, one
burst-buffer client per compute node and ``streams_per_node`` concurrent
stream processes per client — the scaled-down analogue of the paper's
"56 MPI processes per node".

``run_stream`` is a simulation generator: it performs I/O through the
client and returns when the stream's work is done (fixed-step
applications) or when the simulated clock passes *stop_time*
(open-ended benchmarks).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from ..core.jobinfo import JobInfo
from ..errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover
    from ..bb.client import Client
    from ..sim.engine import Engine

__all__ = ["JobSpec", "Workload"]


@dataclass(frozen=True)
class JobSpec:
    """One job's identity and shape, as the scheduler sees it."""

    job_id: int
    user: str
    group: str = "g0"
    nodes: int = 1          # compute-node count = the "size" policies use
    priority: float = 1.0

    def __post_init__(self):
        # Written so that NaN and infinity fail too (see JobInfo).
        if not 1 <= self.nodes < math.inf:
            raise ConfigError(f"nodes must be finite and >= 1: {self.nodes}")

    def info(self) -> JobInfo:
        """The JobInfo embedded in this job's I/O requests."""
        return JobInfo(job_id=self.job_id, user=self.user, group=self.group,
                       size=self.nodes, priority=self.priority)


class Workload(ABC):
    """Base class for all workload generators."""

    #: concurrent I/O streams per compute node (scaled-down proc count).
    streams_per_node: int = 4

    @abstractmethod
    def run_stream(self, engine: "Engine", client: "Client",
                   rng: np.random.Generator, prefix: str, stream_idx: int,
                   stop_time: Optional[float]):
        """Generator body of one stream; see module docstring."""

    @staticmethod
    def _expired(engine: "Engine", stop_time: Optional[float]) -> bool:
        return stop_time is not None and engine.now >= stop_time
