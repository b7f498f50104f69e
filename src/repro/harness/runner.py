"""Experiment runner: cluster assembly, job launch, result collection."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..bb.cluster import Cluster
from ..errors import ConfigError
from ..faults.injector import FaultInjector
from ..metrics.sampler import ThroughputSampler
from ..metrics.stats import median_nonzero, stddev_nonzero
from .config import ExperimentConfig, JobRun

__all__ = ["JobOutcome", "ExperimentResult", "run_experiment"]


@dataclass
class JobOutcome:
    """What happened to one job."""

    job_id: int
    start: float
    end: Optional[float]       # None if still running at max_time
    streams: int
    bytes_moved: int = 0

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def time_to_solution(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start


class ExperimentResult:
    """Collected measurements of one experiment run."""

    def __init__(self, config: ExperimentConfig, cluster: Cluster,
                 outcomes: Dict[int, JobOutcome]):
        self.config = config
        self.cluster = cluster
        self.outcomes = outcomes

    @property
    def sampler(self) -> ThroughputSampler:
        return self.cluster.sampler

    @property
    def end_time(self) -> float:
        return self.cluster.engine.now

    # ---------------------------------------------------------------- series
    def series(self, job_id: Optional[int] = None
               ) -> Tuple[np.ndarray, np.ndarray]:
        """Binned throughput series (all jobs, or one job)."""
        return self.sampler.series(job_id, self.config.sample_interval,
                                   start=0.0, end=self.end_time)

    def median_throughput(self, job_id: Optional[int] = None,
                          t0: float = 0.0,
                          t1: Optional[float] = None) -> float:
        """Median of non-zero per-interval throughput over [t0, t1)."""
        times, values = self.series(job_id)
        t1 = t1 if t1 is not None else self.end_time
        mask = (times >= t0) & (times < t1)
        return median_nonzero(values[mask])

    def stddev_throughput(self, job_id: Optional[int] = None,
                          t0: float = 0.0,
                          t1: Optional[float] = None) -> float:
        """Stddev of non-zero per-interval throughput over [t0, t1)."""
        times, values = self.series(job_id)
        t1 = t1 if t1 is not None else self.end_time
        mask = (times >= t0) & (times < t1)
        return stddev_nonzero(values[mask])

    def window_throughput(self, t0: float, t1: float,
                          job_id: Optional[int] = None) -> float:
        """Mean bytes/second over [t0, t1)."""
        return self.sampler.window_throughput(t0, t1, job_id)

    def time_to_solution(self, job_id: int) -> float:
        """The job's start-to-finish time (raises if it never finished)."""
        outcome = self.outcomes[job_id]
        if outcome.end is None:
            raise ConfigError(
                f"job {job_id} did not finish by max_time={self.config.max_time}")
        return outcome.time_to_solution


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Build the cluster, arm ``config.faults``, run every job, return
    the measurements — the one place a harness cluster is assembled."""
    cluster = Cluster(config.cluster)
    if config.faults is not None:
        FaultInjector(cluster, config.faults).arm()
    engine = cluster.engine
    cluster.fs.makedirs(config.base_dir)
    outcomes: Dict[int, JobOutcome] = {}
    finite_jobs = {run.spec.job_id for run in config.jobs if run.stop is None}

    def maybe_stop():
        if (config.stop_when_jobs_finish and finite_jobs
                and all(outcomes[j].end is not None for j in finite_jobs)):
            engine.request_stop()

    def launch(run: JobRun):
        prefix = f"{config.base_dir}/job{run.spec.job_id}"
        cluster.fs.makedirs(prefix)

        def job_proc():
            if run.start > 0:
                yield engine.timeout(run.start)
            info = run.spec.info()
            clients = [cluster.add_client(
                info, client_id=f"j{run.spec.job_id}n{i}")
                for i in range(run.n_clients)]
            streams = []
            for c_idx, client in enumerate(clients):
                for s_idx in range(run.workload.streams_per_node):
                    rng = cluster.rng.stream(
                        f"wl.j{run.spec.job_id}.c{c_idx}.s{s_idx}")
                    streams.append(engine.process(run.workload.run_stream(
                        engine, client, rng, prefix, s_idx, run.stop)))
            outcome = outcomes[run.spec.job_id]
            outcome.streams = len(streams)
            yield engine.all_of(streams)
            outcome.end = engine.now
            for client in clients:
                yield from client.goodbye()
            maybe_stop()

        outcomes[run.spec.job_id] = JobOutcome(
            job_id=run.spec.job_id, start=run.start, end=None, streams=0)
        engine.process(job_proc())

    for run in config.jobs:
        launch(run)
    engine.run(until=config.max_time)

    for run in config.jobs:
        outcome = outcomes[run.spec.job_id]
        outcome.bytes_moved = cluster.sampler.total_bytes(run.spec.job_id)
    return ExperimentResult(config, cluster, outcomes)
