"""Experiment harness: configs, runner, reporting, the figure table
and the content-addressed workspace its points are cached in."""

from .config import ExperimentConfig, JobRun
from .experiments import FIGURES, run_figure, run_points, scenario
from .report import pct, table
from .runner import ExperimentResult, JobOutcome, run_experiment
from .workspace import Workspace, code_rev, point_key

__all__ = [
    "ExperimentConfig",
    "JobRun",
    "run_experiment",
    "ExperimentResult",
    "JobOutcome",
    "FIGURES",
    "run_figure",
    "run_points",
    "scenario",
    "table",
    "pct",
    "Workspace",
    "code_rev",
    "point_key",
]
