"""Command-line interface: ``python -m repro <command>``.

``figures`` lists the experiments of the figure table
(:data:`repro.harness.experiments.FIGURES`: the paper's figures plus
``datawarp``, ``outage`` and ``sync-ladder``) and ``figure
NAME`` runs one and prints its paper-style report. Every figure is a
grid of independent points: ``--workspace DIR`` caches them (the
one-line hits/misses count goes to stderr), ``--jobs N`` fans cold ones
out; any other parameterisation of a figure is a keyword argument of
:func:`repro.harness.experiments.run_figure`. ``sharing`` is an ad-hoc
two-phase run: ``--jobs 4:alice,1:bob`` runs one job per
``nodes:user[:group]`` entry, the first for the whole window, the rest
joining a quarter in. ``policies`` lists accepted sharing-policy
spellings; ``lint`` is the static determinism analysis
(:mod:`repro.lint`, DESIGN.md §9).
"""

from __future__ import annotations

import argparse
import inspect
import math
import sys
from typing import List, Optional

from .core.policy import Policy
from .errors import ReproError
from .harness.experiments import FIGURES, run_points, timeline
from .harness.runner import run_experiment
from .harness.workspace import Workspace
from .units import fmt_bw
from .workloads import JobSpec

__all__ = ["main"]

_POLICY_EXAMPLES = [
    "job-fair", "size-fair", "user-fair", "priority-fair", "group-fair",
    "user-then-job-fair", "user-then-size-fair", "group-then-user-fair",
    "group-user-then-size-fair", "group-user-size-fair",
]


def _scale(text: str) -> float:
    """``--scale``: a finite number above zero."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a finite number above 0")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ThemisIO reproduction: run paper experiments and "
                    "ad-hoc sharing studies.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("figures", help="list reproducible figures")
    sub.add_parser("policies", help="list sharing-policy spellings")

    fig = sub.add_parser("figure", help="run one figure experiment")
    fig.add_argument("name", choices=sorted(FIGURES))
    fig.add_argument("--scale", type=_scale, default=0.1,
                     help="timeline scale vs the paper's 60 s (default 0.1; "
                          "figures on a scaled timeline)")
    fig.add_argument("--seed", type=int, default=0,
                     help="workload seed (figures that take one)")
    fig.add_argument("--jobs", type=int, default=1,
                     help="parallel workers for the figure's points")
    fig.add_argument("--workspace", default=None,
                     help="cache the figure's points in this workspace dir")

    share = sub.add_parser("sharing", help="ad-hoc two-phase sharing run")
    share.add_argument("--policy", default="size-fair",
                       help="policy string, or fifo/gift/tbf")
    share.add_argument("--jobs", default="4:alice,1:bob",
                       help="comma list of nodes:user[:group] entries")
    share.add_argument("--scale", type=_scale, default=0.1)
    share.add_argument("--seed", type=int, default=0)
    share.add_argument("--servers", type=int, default=1)

    sub.add_parser(
        "lint", add_help=False,
        help="static determinism & sim-safety analysis (repro.lint)")
    return parser


def _parse_jobs(spec: str) -> List[JobSpec]:
    jobs = []
    for idx, entry in enumerate(spec.split(",")):
        parts = [part.strip() for part in entry.split(":")]
        if not 2 <= len(parts) <= 3 or not all(parts[1:]):
            raise ReproError(
                f"bad job entry {entry!r}: expected nodes:user[:group]")
        try:
            nodes = int(parts[0])
        except ValueError:
            raise ReproError(
                f"bad job entry {entry!r}: nodes must be an integer") from None
        group = parts[2] if len(parts) > 2 else "g0"
        jobs.append(JobSpec(job_id=idx + 1, user=parts[1], group=group,
                            nodes=nodes))
    return jobs


def _cmd_figures() -> int:
    for name in sorted(FIGURES):
        print(name)
    return 0


def _cmd_policies() -> int:
    width = max(len(s) for s in _POLICY_EXAMPLES)
    for spec in _POLICY_EXAMPLES:
        policy = Policy.parse(spec)
        levels = " -> ".join(level.value for level in policy.levels)
        print(f"{spec.ljust(width)}  {levels}")
    return 0


def _cmd_figure(args) -> int:
    figure = FIGURES[args.name]
    takes = inspect.signature(figure.points).parameters
    params = {name: getattr(args, name) for name in ("scale", "seed")
              if name in takes}
    workspace = Workspace(args.workspace) if args.workspace else None
    rows, hits = run_points(figure.cell, figure.points(**params), workspace,
                            args.jobs)
    print(figure.report(rows))
    if workspace is not None:
        print(f"hits {hits} misses {len(rows) - hits}", file=sys.stderr)
    return 0


def _cmd_sharing(args) -> int:
    specs = _parse_jobs(args.jobs)
    result = run_experiment(timeline(
        args.policy, specs, args.scale, args.seed, n_servers=args.servers,
        leave=60.0))
    interval = result.config.sample_interval
    window = result.config.jobs[0].stop
    join_at = window / 4
    print(f"policy={args.policy} servers={args.servers} "
          f"window={window:.1f}s")
    for spec in specs:
        rate = result.median_throughput(spec.job_id,
                                        t0=join_at + 2 * interval, t1=window)
        print(f"  job{spec.job_id} ({spec.nodes} nodes, {spec.user}/"
              f"{spec.group}): {fmt_bw(rate)}")
    total = result.window_throughput(join_at + 2 * interval, window)
    print(f"  total: {fmt_bw(total)}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "lint":
        # Delegated before parsing so the analyzer owns its own argparse
        # surface (paths, --select, --list-rules).
        from .lint import main as lint_main
        return lint_main(argv[1:])
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "figures":
            return _cmd_figures()
        if args.command == "policies":
            return _cmd_policies()
        if args.command == "figure":
            return _cmd_figure(args)
        if args.command == "sharing":
            return _cmd_sharing(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
