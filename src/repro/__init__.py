"""ThemisIO reproduction: fine-grained policy-driven I/O sharing for
burst buffers (SC 2023), rebuilt on a discrete-event simulation substrate.

Public surface by layer:

- :mod:`repro.sim` — the DES kernel (engine, processes, resources, RNG).
- :mod:`repro.net` / :mod:`repro.ucx` — interconnect and UCX-like messaging.
- :mod:`repro.fs` — the distributed userspace file system.
- :mod:`repro.core` — statistical tokens, policies, schedulers, baselines.
- :mod:`repro.bb` — the ThemisIO servers/clients/cluster.
- :mod:`repro.workloads` — benchmarks and application I/O models.
- :mod:`repro.metrics` — measurement utilities.
- :mod:`repro.harness` — experiment runner and per-figure experiments.

The most common entry points are re-exported here.
"""

from .bb import Client, Cluster, ClusterConfig, Server, ServerConfig
from .core import (FifoScheduler, GiftScheduler, JobInfo, JobStatusTable,
                   Policy, StatisticalTokenScheduler, TbfScheduler,
                   TokenAssignment)
from .harness import ExperimentConfig, JobRun, run_experiment
from .workloads import JobSpec

__version__ = "1.0.0"

__all__ = [
    "Cluster",
    "ClusterConfig",
    "Server",
    "ServerConfig",
    "Client",
    "JobInfo",
    "JobStatusTable",
    "Policy",
    "TokenAssignment",
    "StatisticalTokenScheduler",
    "FifoScheduler",
    "GiftScheduler",
    "TbfScheduler",
    "ExperimentConfig",
    "JobRun",
    "run_experiment",
    "JobSpec",
    "__version__",
]
