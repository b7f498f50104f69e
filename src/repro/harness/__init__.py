"""Experiment harness: configs, runner, reporting, the figure table,
and the content-addressed sweep workspace."""

from .config import ExperimentConfig, JobRun
from .experiments import FIGURES, run_figure, scenario
from .report import pct, ratio, sparkline, table
from .runner import ExperimentResult, JobOutcome, run_experiment
from .sweep import BUILTIN_GRIDS, ParallelRunner, SweepRun, SweepSpec
from .workspace import Workspace, code_rev, point_key

__all__ = [
    "ExperimentConfig",
    "JobRun",
    "run_experiment",
    "ExperimentResult",
    "JobOutcome",
    "FIGURES",
    "run_figure",
    "scenario",
    "table",
    "sparkline",
    "pct",
    "ratio",
    "Workspace",
    "code_rev",
    "point_key",
    "SweepSpec",
    "SweepRun",
    "ParallelRunner",
    "BUILTIN_GRIDS",
]
