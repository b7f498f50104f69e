"""Workload generators: the paper's benchmarks and application models."""

from .apps import (APP_PROFILES, BERT, NAMD, RESNET50, RESNET50_SYNC,
                   SPECFEM3D, WRF, ApplicationWorkload, AppProfile)
from .base import JobSpec, Workload
from .custom import IopsStat, IopsWriteRead, PinnedWriter, WriteReadCycle
from .ior import IORWorkload
from .mdtest import MdtestWorkload

__all__ = [
    "Workload",
    "JobSpec",
    "WriteReadCycle",
    "IopsWriteRead",
    "IopsStat",
    "PinnedWriter",
    "IORWorkload",
    "MdtestWorkload",
    "ApplicationWorkload",
    "AppProfile",
    "APP_PROFILES",
    "NAMD",
    "WRF",
    "SPECFEM3D",
    "RESNET50",
    "RESNET50_SYNC",
    "BERT",
]
