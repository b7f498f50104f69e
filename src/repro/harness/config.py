"""Experiment configuration."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..bb.cluster import ClusterConfig
from ..errors import ConfigError
from ..faults.plan import FaultPlan
from ..workloads.base import JobSpec, Workload

__all__ = ["JobRun", "ExperimentConfig"]


@dataclass
class JobRun:
    """One job in an experiment: who it is, what it runs, when.

    ``client_nodes`` bounds the number of *simulated* client endpoints;
    policies still see ``spec.nodes`` (a 64-node job can be driven by 4
    aggregated clients without changing its fair share).
    """

    spec: JobSpec
    workload: Workload
    start: float = 0.0
    stop: Optional[float] = None     # absolute stop for open-ended streams
    client_nodes: Optional[int] = None

    def __post_init__(self):
        if self.start < 0:
            raise ConfigError(f"start must be >= 0: {self.start}")
        if self.stop is not None and self.stop <= self.start:
            raise ConfigError("stop must be after start")
        if self.client_nodes is not None and self.client_nodes < 1:
            raise ConfigError("client_nodes must be >= 1")

    @property
    def n_clients(self) -> int:
        return self.client_nodes or min(self.spec.nodes, 8)


@dataclass
class ExperimentConfig:
    """A full experiment: a cluster, the jobs run against it, and the
    faults injected into it — the whole description of a run."""

    cluster: ClusterConfig = field(default_factory=ClusterConfig)
    jobs: List[JobRun] = field(default_factory=list)
    max_time: float = 60.0
    sample_interval: float = 1.0
    #: armed against the freshly built cluster before any simulated
    #: time passes (see :class:`~repro.faults.FaultInjector`).
    faults: Optional[FaultPlan] = None

    def __post_init__(self):
        if self.max_time <= 0 or self.sample_interval <= 0:
            raise ConfigError("max_time and sample_interval must be positive")
        if not self.jobs:
            raise ConfigError("experiment needs at least one job")
        ids = [run.spec.job_id for run in self.jobs]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate job ids: {ids}")
