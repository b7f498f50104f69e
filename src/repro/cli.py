"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``figures``
    List the reproducible paper figures.
``figure NAME``
    Run one figure experiment and print its paper-style report
    (e.g. ``python -m repro figure fig08a --scale 0.1``).
``policies``
    List accepted sharing-policy spellings with their parsed levels.
``sharing``
    Ad-hoc two-phase sharing run: ``--policy size-fair --jobs
    4:alice,1:bob`` runs one job per entry (``nodes:user[:group]``),
    first job for the whole window, the rest joining a quarter in.
``faults``
    Availability scenario: N jobs through one server crash + restart
    with journaling, log-structured storage and fault-tolerant clients
    enabled; prints recovery time, fairness through the outage, and the
    run's fault counters.
``repair``
    Repair-vs-fairness study: erasure-coded jobs burst through a
    mid-run server crash, once per sharing policy; prints the policy x
    metric matrix (foreground slowdown, repair completion, loss
    counters) and whether size-fair starves the size-1 repair job.
``sweep``
    Expand a declarative sweep (JSON spec file or ``--grid`` name) and
    run it through the content-addressed workspace: unchanged points
    are cache hits, cold points fan out over ``--jobs`` processes, and
    the summary reports hits/misses/speedup plus the results digest
    (see :mod:`repro.harness.sweep`).
``lint``
    Static determinism & sim-safety analysis over the tree (see
    :mod:`repro.lint` and DESIGN.md §9); exits non-zero on any
    finding. ``python -m repro lint --list-rules`` prints the
    catalogue.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .core.policy import Policy
from .errors import ReproError
from .harness import experiments as exps
from .harness.config import JobRun
from .harness.experiments import REPAIR_POLICIES, run_sharing_experiment
from .harness.sweep import BUILTIN_GRIDS
from .units import fmt_bw
from .workloads import JobSpec, WriteReadCycle
from .units import MB

__all__ = ["main", "FIGURES"]


def _figure_workspace(args):
    """The figure ladders' optional workspace (``--workspace DIR``)."""
    if getattr(args, "workspace", None):
        from .harness.workspace import Workspace
        return Workspace(args.workspace)
    return None


#: figure name -> (callable, kwargs builder from args)
FIGURES = {
    "fig01": lambda a: exps.fig01_interference(seed=a.seed),
    "fig07": lambda a: exps.fig07_scaling(
        workspace=_figure_workspace(a), jobs=a.jobs),
    "fig08a": lambda a: exps.fig08_primitive("size-fair", scale=a.scale,
                                             seed=a.seed),
    "fig08b": lambda a: exps.fig08_primitive("job-fair", scale=a.scale,
                                             seed=a.seed),
    "fig08c": lambda a: exps.fig08c_user_fair(scale=a.scale, seed=a.seed),
    "fig09": lambda a: exps.fig09_user_then_size(scale=a.scale, seed=a.seed),
    "fig10": lambda a: exps.fig10_group_user_size(scale=a.scale, seed=a.seed),
    "fig12": lambda a: exps.fig12_baselines(scale=a.scale, seed=a.seed),
    "fig13": lambda a: exps.fig13_applications(seed=a.seed),
    "fig14": lambda a: exps.fig14_lambda(
        seed=a.seed, workspace=_figure_workspace(a), jobs=a.jobs),
    "datawarp": lambda a: exps.related_datawarp(seed=a.seed),
    "sync-ladder": lambda a: exps.sync_ladder(
        workspace=_figure_workspace(a), jobs=a.jobs),
}

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
                     help="timeline scale vs the paper's 60 s (default 0.1)")
    fig.add_argument("--seed", type=int, default=0)
    fig.add_argument("--jobs", type=int, default=1,
                     help="parallel workers for point-structured figures "
                          "(fig07, fig14, sync-ladder)")
    fig.add_argument("--workspace", default=None,
                     help="cache fig07/fig14/sync-ladder cells in this "
                          "workspace dir")

    share = sub.add_parser("sharing", help="ad-hoc two-phase sharing run")
    share.add_argument("--policy", default="size-fair",
                       help="policy string, or fifo/gift/tbf")
    share.add_argument("--jobs", default="4:alice,1:bob",
                       help="comma list of nodes:user[:group] entries")
    share.add_argument("--scale", type=float, default=0.1)
    share.add_argument("--seed", type=int, default=0)
    share.add_argument("--servers", type=int, default=1)

    faults = sub.add_parser(
        "faults", help="availability run through a server crash + restart")
    faults.add_argument("--jobs", type=int, default=3,
                        help="number of concurrent jobs (default 3)")
    faults.add_argument("--servers", type=int, default=2)
    faults.add_argument("--duration", type=float, default=6.0)
    faults.add_argument("--crash-at", type=float, default=2.0)
    faults.add_argument("--restart-at", type=float, default=3.5)
    faults.add_argument("--seed", type=int, default=0)

    repair = sub.add_parser(
        "repair", help="repair-vs-fairness study: erasure-coded burst "
                       "through a crash, one run per policy")
    repair.add_argument("--policies", default=",".join(REPAIR_POLICIES),
                        help="comma list of policies (default: "
                             f"{','.join(REPAIR_POLICIES)})")
    repair.add_argument("--duration", type=float, default=6.0)
    repair.add_argument("--crash-at", type=float, default=2.0)
    repair.add_argument("--seed", type=int, default=0)
    repair.add_argument("--jobs", type=int, default=1,
                        help="parallel workers, one policy per point")
    repair.add_argument("--workspace", default=None,
                        help="cache policy points in this workspace dir")

    sub.add_parser(
        "lint", add_help=False,
        help="static determinism & sim-safety analysis (repro.lint)")

    sweep = sub.add_parser(
        "sweep", help="run a declarative sweep through the "
                      "content-addressed workspace")
    sweep.add_argument("spec", nargs="?", default=None,
                       help="JSON sweep spec file (default: --grid)")
    sweep.add_argument("--grid", default="quick",
                       choices=sorted(BUILTIN_GRIDS),
                       help="built-in grid to run when no spec file is given")
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


def _cmd_figure(args) -> int:
    result = FIGURES[args.name](args)
    print(result.report())
    return 0


def _cmd_sharing(args) -> int:
    specs = _parse_jobs(args.jobs)
    window = 60.0 * args.scale
    join_at = window / 4
    runs = []
    for i, spec in enumerate(specs):
        start = 0.0 if i == 0 else join_at
        runs.append(JobRun(
            spec=spec,
            workload=WriteReadCycle(file_size=10 * MB, streams_per_node=16),
            start=start, stop=window))
    result = run_sharing_experiment(args.policy, runs,
                                    n_servers=args.servers,
                                    scale=args.scale, seed=args.seed)
    interval = result.config.sample_interval
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
    from .harness.sweep import ParallelRunner, load_spec
    from .harness.workspace import Workspace
    if args.spec:
        spec = load_spec(args.spec)
    else:
        spec = BUILTIN_GRIDS[args.grid]
    workspace = None if args.no_workspace else Workspace(args.workspace)
    runner = ParallelRunner(workspace=workspace, jobs=args.jobs)
    run = runner.run_spec(spec, rerun=args.rerun)
    print(f"sweep {spec.name} ({spec.kind}): "
          f"{len(run.points)} points")
    print(run.summary())
    if args.json_out:
        with open(args.json_out, "w") as fh:
            json.dump(run.to_summary(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json_out}")
    return 0


def _cmd_faults(args) -> int:
    out = exps.availability_outage(
        n_jobs=args.jobs, n_servers=args.servers, duration=args.duration,
        crash_at=args.crash_at, restart_at=args.restart_at, seed=args.seed)
    print(out.report())
    print()
    print("fault counters:")
    print(out.stats.report())
    return 0


def _cmd_repair(args) -> int:
    workspace = None
    if args.workspace:
        from .harness.workspace import Workspace
        workspace = Workspace(args.workspace)
    out = exps.repair_fairness(
        policies=[p.strip() for p in args.policies.split(",") if p.strip()],
        seed=args.seed, duration=args.duration, crash_at=args.crash_at,
        workspace=workspace, jobs=args.jobs)
    print(out.report())
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
        if args.command == "faults":
            return _cmd_faults(args)
        if args.command == "repair":
            return _cmd_repair(args)
        if args.command == "sweep":
            return _cmd_sweep(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
