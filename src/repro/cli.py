"""Command-line interface: ``python -m repro <command>``.

``figures`` lists the experiments of the figure table
(:data:`repro.harness.experiments.FIGURES`: the paper's figures plus
``datawarp``, ``outage``, ``repair`` and ``sync-ladder``) and ``figure
NAME`` runs one and prints its paper-style report. Every figure is a
grid of independent points: ``--workspace DIR`` caches them (the
hits/misses summary goes to stderr), ``--jobs N`` fans cold ones out.
``sweep`` runs any grid of points — a JSON spec file, ``--grid quick``,
or ``--grid FIGURE`` for a figure's default points — through the same
content-addressed workspace (:mod:`repro.harness.sweep`) and prints
hits/misses/speedup plus the results digest. ``sharing`` is an ad-hoc
two-phase run: ``--jobs 4:alice,1:bob`` runs one job per
``nodes:user[:group]`` entry, the first for the whole window, the rest
joining a quarter in. ``policies`` lists accepted sharing-policy
spellings; ``lint`` is the static determinism analysis
(:mod:`repro.lint`, DESIGN.md §9).
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from typing import List, Optional

from .core.policy import Policy
from .errors import ReproError
from .harness.experiments import FIGURES, timeline
from .harness.runner import run_experiment
from .harness.sweep import BUILTIN_GRIDS, ParallelRunner, load_spec
from .harness.workspace import Workspace
from .units import fmt_bw
from .workloads import JobSpec

__all__ = ["main"]

_POLICY_EXAMPLES = [
    "job-fair", "size-fair", "user-fair", "priority-fair", "group-fair",
    "user-then-job-fair", "user-then-size-fair", "group-then-user-fair",
    "group-user-then-size-fair", "group-user-size-fair",
]


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
    fig.add_argument("--scale", type=float, default=0.1,
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
    share.add_argument("--scale", type=float, default=0.1)
    share.add_argument("--seed", type=int, default=0)
    share.add_argument("--servers", type=int, default=1)

    sub.add_parser(
        "lint", add_help=False,
        help="static determinism & sim-safety analysis (repro.lint)")

    sweep = sub.add_parser(
        "sweep", help="run a declarative sweep through the "
                      "content-addressed workspace")
    sweep.add_argument("spec", nargs="?", default=None,
                       help="JSON sweep spec file (default: --grid)")
    sweep.add_argument("--grid", default="quick",
                       choices=sorted(BUILTIN_GRIDS) + sorted(FIGURES),
                       help="grid to run when no spec file is given: quick, "
                            "or a figure's default points")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="parallel workers for cold points (default 1)")
    sweep.add_argument("--workspace", default=".workspace",
                       help="content-addressed store directory")
    sweep.add_argument("--no-workspace", action="store_true",
                       help="compute every point, bypassing the store")
    sweep.add_argument("--rerun", action="store_true",
                       help="invalidate this sweep's stored points first")
    sweep.add_argument("--json", default=None, dest="json_out",
                       help="also write the run summary (hits/misses/"
                            "digest) to this path")
    return parser


def _parse_jobs(spec: str) -> List[JobSpec]:
    jobs = []
    for idx, entry in enumerate(spec.split(",")):
        parts = entry.strip().split(":")
        if len(parts) < 2:
            raise ReproError(
                f"bad job entry {entry!r}: expected nodes:user[:group]")
        nodes = int(parts[0])
        user = parts[1]
        group = parts[2] if len(parts) > 2 else "g0"
        jobs.append(JobSpec(job_id=idx + 1, user=user, group=group,
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


def _runner(workspace: Optional[str], jobs: int) -> ParallelRunner:
    return ParallelRunner(
        workspace=Workspace(workspace) if workspace else None, jobs=jobs)


def _cmd_figure(args) -> int:
    figure = FIGURES[args.name]
    takes = inspect.signature(figure.points).parameters
    params = {name: getattr(args, name) for name in ("scale", "seed")
              if name in takes}
    run = _runner(args.workspace, args.jobs).run_points(
        figure.expand(**params))
    print(figure.report(run.rows()))
    if args.workspace:
        print(run.summary(), file=sys.stderr)
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


def _cmd_sweep(args) -> int:
    if args.spec or args.grid in BUILTIN_GRIDS:
        spec = load_spec(args.spec) if args.spec else BUILTIN_GRIDS[args.grid]
        name, kind = spec.name, spec.kind
        points = [(kind, config) for config in spec.points()]
    else:
        name, kind = args.grid, FIGURES[args.grid].kind
        points = FIGURES[args.grid].expand()
    runner = _runner(None if args.no_workspace else args.workspace, args.jobs)
    run = runner.run_points(points, rerun=args.rerun)
    print(f"sweep {name} ({kind}): {len(run.points)} points")
    print(run.summary())
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(run.to_summary(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json_out}")
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
        if args.command == "sweep":
            return _cmd_sweep(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
