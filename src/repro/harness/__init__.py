"""Experiment harness: configs, runner, reporting, per-figure
experiments, and the content-addressed sweep workspace."""

from .config import ExperimentConfig, JobRun
from .experiments import (BaselineComparison, CompositeResult,
                          InterferenceResult, LambdaResult, ScalingResult,
                          SharingResult, fig01_interference, fig07_scaling,
                          fig08_primitive, fig08c_user_fair,
                          fig09_user_then_size, fig10_group_user_size,
                          fig12_baselines, fig13_applications, fig14_lambda,
                          run_sharing_experiment)
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
    "run_sharing_experiment",
    "SharingResult",
    "CompositeResult",
    "ScalingResult",
    "BaselineComparison",
    "InterferenceResult",
    "LambdaResult",
    "fig01_interference",
    "fig07_scaling",
    "fig08_primitive",
    "fig08c_user_fair",
    "fig09_user_then_size",
    "fig10_group_user_size",
    "fig12_baselines",
    "fig13_applications",
    "fig14_lambda",
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
