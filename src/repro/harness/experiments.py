"""Every experiment of the evaluation (§5), as one chain.

**scenario** — a function returning a plain :class:`ExperimentConfig`
(cluster, jobs, horizon, fault plan): the whole description of a run.
**cell** — a module-level function: JSON config dict -> scenario ->
:func:`run_experiment` -> JSON result dict, so every cell can be cached
in the workspace and fanned out over processes. **figure** — one row of
:data:`FIGURES`: its cell, the cell configs its arguments expand to (the
docstring of that function is the shape the paper expects), and
``report(rows)`` printing the rows/series the paper shows. A *row* is a
cell's config merged with its result; everything derived
(``sharing_ratio``, ``slowdown``, ``efficiencies`` …) is a pure
function of rows. :func:`run_points` is the one runner: it reads and
writes the content-addressed :class:`~repro.harness.workspace.Workspace`
and fans cold points out over ``spawn`` workers; :func:`run_figure` runs
a row through it.

Magnitudes are simulation-scale (DESIGN.md §4.4): the shapes — who
wins, approximate ratios, crossovers — are the reproduction target.
``scale`` shortens the paper's 60 s timelines (0.25: job 1 runs 15 s,
job 2 7.5 s from +3.75 s); ratios are time-scale invariant.
"""

from __future__ import annotations

import multiprocessing
from functools import partial
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..bb.client import ClientConfig
from ..bb.cluster import Cluster, ClusterConfig
from ..bb.server import ServerConfig
from ..core.jobinfo import JobInfo
from ..core.tokens import ordered_sum
from ..errors import ConfigError
from ..faults import FaultPlan, ServerCrash
from ..fs.hashing import ConsistentHashRing
from ..metrics.faultstats import FaultStats
from ..metrics.stats import jain_index, scaling_efficiency, share_ratio
from ..metrics.timeline import ShareTimeline, convergence_interval
from ..units import GB, MB, fmt_bw
from ..workloads.apps import (APP_PROFILES, RESNET50_SYNC,
                              ApplicationWorkload, AppProfile)
from ..workloads.base import JobSpec
from ..workloads.custom import IopsWriteRead, PinnedWriter, WriteReadCycle
from ..workloads.ior import IORWorkload
from .config import ExperimentConfig, JobRun
from .report import pct, table
from .runner import ExperimentResult, run_experiment
from .workspace import Workspace, code_rev, point_key

__all__ = [
    "FIGURES", "Figure", "run_figure", "run_points",
    "scenario", "timeline", "fig07_scenario", "fig14_scenario",
    "app_scenario", "datawarp_scenario", "outage_scenario", "outage_row",
    "sharing_cell", "steady_cell", "fig07_cell", "fig14_cell", "app_cell",
    "datawarp_cell", "sync_cost_cell", "outage_cell",
    "sharing_ratio", "themis_advantage", "scaling_series", "efficiencies",
    "slowdown", "slowdown_reduction",
]


# =====================================================================
# Scenarios: plain ExperimentConfigs.
# =====================================================================

def scenario(policy: str, jobs: Sequence[JobRun], n_servers: int = 1,
             scale: float = 0.25, seed: int = 0,
             sample_interval: Optional[float] = None,
             server: Optional[ServerConfig] = None,
             horizon: Optional[float] = None,
             faults: Optional[FaultPlan] = None,
             **cluster_kw) -> ExperimentConfig:
    """*jobs* against one cluster under *policy*.

    Open-ended jobs set the horizon themselves (the last ``stop`` plus
    1 s); a run-to-completion job (``stop=None``) needs an explicit
    *horizon* — there is no default that fits every application.
    """
    if horizon is None:
        if any(run.stop is None for run in jobs):
            raise ConfigError("a job without a stop needs an explicit "
                              "horizon")
        horizon = max((run.stop for run in jobs), default=0.0) + 1.0
    return ExperimentConfig(
        cluster=ClusterConfig(n_servers=n_servers, policy=policy,
                              server=server or ServerConfig(), seed=seed,
                              **cluster_kw),
        jobs=list(jobs), max_time=horizon,
        sample_interval=sample_interval or max(0.1, scale), faults=faults)


def timeline(policy: str, specs: Sequence[JobSpec], scale: float = 0.25,
             seed: int = 0, n_servers: int = 1, join: float = 15.0,
             leave: float = 45.0, **cluster_kw) -> ExperimentConfig:
    """The paper's 60 s timeline of 10 MB write/read cycles, times
    scaled: the first job runs throughout, the others from *join* until
    *leave* (Figs. 8a/b and 12: +15 s to +45 s; the steady composites
    of Figs. 8c-10: 0 to 60 s)."""
    # 16 streams/node keeps even a 1-node job saturating (the paper's
    # jobs run 56 processes per node).
    jobs = [JobRun(spec=spec, workload=WriteReadCycle(file_size=10 * MB,
                                                      streams_per_node=16),
                   start=join * scale if i else 0.0,
                   stop=(leave if i else 60.0) * scale)
            for i, spec in enumerate(specs)]
    return scenario(policy, jobs, n_servers=n_servers, scale=scale,
                    seed=seed, **cluster_kw)


def fig07_scenario(policy: str, mode: str, n_servers: int,
                   duration: float = 3.0, block: int = 8 * MB,
                   seed: int = 0) -> ExperimentConfig:
    """As many 1-node IOR jobs (8 streams, 64 MB files) as servers."""
    jobs = [JobRun(
        spec=JobSpec(job_id=i + 1, user=f"u{i}", nodes=1),
        workload=IORWorkload(file_size=64 * MB, block_size=block,
                             mode=mode, streams_per_node=8),
        start=0.0, stop=duration) for i in range(n_servers)]
    return scenario(policy, jobs, n_servers=n_servers, seed=seed,
                    sample_interval=0.25)


def _pinned_paths(n_servers: int, per_server: int) -> Dict[str, List[str]]:
    """*per_server* file paths that the hash ring places on each of
    *n_servers* servers (placement depends on the server names only)."""
    names = [f"bb{i}" for i in range(n_servers)]
    ring = ConsistentHashRing(names)
    by_server: Dict[str, List[str]] = {name: [] for name in names}
    i = 0
    while any(len(paths) < per_server for paths in by_server.values()):
        path = f"/fs/pin/file-{i}"
        owner = ring.lookup(path)
        if len(by_server[owner]) < per_server:
            by_server[owner].append(path)
        i += 1
    return by_server


def fig14_scenario(lam: float, seed: int = 0) -> ExperimentConfig:
    """The Fig. 5 scenario: job 1 (16 nodes) touches both servers, jobs
    2 and 3 (8 nodes) one each; λ is also the sampling interval."""
    by_server = _pinned_paths(2, 2)
    s0_paths, s1_paths = by_server["bb0"], by_server["bb1"]
    duration = max(8 * lam, 0.8)
    jobs = [JobRun(spec=JobSpec(job_id=job_id, user=f"u{job_id}",
                                nodes=nodes),
                   workload=PinnedWriter(paths, request_size=2 * MB,
                                         streams_per_node=8),
                   start=0.0, stop=duration)
            for job_id, nodes, paths in (
                (1, 16, [s0_paths[0], s1_paths[0]]),
                (2, 8, [s0_paths[1]]), (3, 8, [s1_paths[1]]))]
    return scenario("size-fair", jobs, n_servers=2, seed=seed,
                    sample_interval=lam,
                    server=ServerConfig(sync_interval=lam))


def app_scenario(app, policy: str, background: bool, seed: int = 0,
                 n_servers: int = 1) -> ExperimentConfig:
    """One application (a §5.1 profile name, ``resnet50-sync``, or a
    dict of :class:`AppProfile` fields) run to completion, optionally
    beside §5.5's background job: one node of 4 MB write/read cycles."""
    profile = (AppProfile(**app) if isinstance(app, dict) else
               {**APP_PROFILES, RESNET50_SYNC.name: RESNET50_SYNC}[app])
    # Generous horizon: apps must finish even badly interfered.
    horizon = (profile.steps * profile.compute_per_step) * 12 + 10.0
    jobs = [JobRun(spec=JobSpec(job_id=1, user="app", nodes=profile.nodes),
                   workload=ApplicationWorkload(profile), start=0.0,
                   client_nodes=min(profile.nodes, 4))]
    if background:
        jobs.append(JobRun(
            spec=JobSpec(job_id=2, user="bg", nodes=1),
            workload=IopsWriteRead(file_size=4 * MB, streams_per_node=32),
            start=0.0, stop=horizon - 1.0))
    return scenario(policy, jobs, n_servers=n_servers, seed=seed,
                    sample_interval=0.5, horizon=horizon)


def datawarp_scenario(regime: str, seed: int = 0,
                      duration: float = 2.0) -> ExperimentConfig:
    """4 servers, 2 heavy jobs (8 nodes, 16 streams: each can saturate
    several servers) and 2 light jobs (1 node, a 2-stream trickle) under
    one provisioning *regime*: ``isolated`` (each job on its own
    server, FIFO), ``fifo-shared`` or ``themis`` (shared, size-fair)."""
    pinned = _pinned_paths(4, 16)
    jobs = []
    for idx, (nodes, streams) in enumerate(((8, 16), (8, 16), (1, 2),
                                            (1, 2))):
        if regime == "isolated":
            # DataWarp interference policy: job -> its own server.
            workload = PinnedWriter(pinned[f"bb{idx}"][:streams],
                                    request_size=4 * MB,
                                    streams_per_node=streams)
        else:
            # Shared servers: per-stream files spread over the ring.
            workload = WriteReadCycle(file_size=10 * MB,
                                      streams_per_node=streams)
        jobs.append(JobRun(
            spec=JobSpec(job_id=idx + 1, user=f"u{idx + 1}", nodes=nodes),
            workload=workload, start=0.0, stop=duration))
    return scenario("size-fair" if regime == "themis" else "fifo", jobs,
                    n_servers=4, seed=seed, sample_interval=0.25)


def outage_scenario(n_jobs: int = 3, n_servers: int = 2,
                    duration: float = 6.0, crash_at: float = 2.0,
                    restart_at: float = 3.5, seed: int = 0,
                    crashed: str = "bb0", policy: str = "job-fair"
                    ) -> ExperimentConfig:
    """*n_jobs* write/read jobs through one server crash and restart,
    with every durability layer on: journaled metadata + log-structured
    storage, so acked writes survive the crash. Clients are
    fault-tolerant (0.25 s timeout, unbounded retries, failover) and
    λ-sync degrades (surviving peers keep exchanging tables while the
    crashed one is away)."""
    jobs = [JobRun(spec=JobSpec(job_id=i + 1, user=f"u{i + 1}", nodes=1),
                   workload=WriteReadCycle(file_size=4 * MB,
                                           streams_per_node=4),
                   start=0.0, stop=duration) for i in range(n_jobs)]
    return scenario(policy, jobs, n_servers=n_servers, seed=seed,
                    sample_interval=0.25,
                    server=ServerConfig(sync_timeout=0.5),
                    client=ClientConfig(rpc_timeout=0.25, rpc_retries=-1),
                    faults=FaultPlan([ServerCrash(crashed, at=crash_at,
                                                  restart_at=restart_at)]),
                    journal=True, storage_backend="log")


# =====================================================================
# Cells: one fully-resolved JSON config dict -> one JSON result dict.
# All state lives inside the call, so points are safe to run in any
# order, in any process (the contract :func:`run_points` relies on).
# =====================================================================

def sharing_cell(config: Dict) -> Dict:
    """One two-job run on the :func:`timeline`.

    Config keys: ``policy``, ``seed``, optional ``nodes1`` (4),
    ``nodes2`` (1), ``scale`` (0.25), ``n_servers`` (1), ``gift_mu``,
    ``tbf_rates`` (job -> B/s). With ``threshold`` the result also
    carries ``time_to_fair_share`` — §5.4's "latency to fair-sharing":
    seconds from job 2's start until its throughput first sustains
    that fraction of its eventual shared median (None if never), which
    tells ThemisIO's immediate token reallocation from GIFT's
    epoch-lagged budgets.
    """
    cluster_kw = {}
    if "gift_mu" in config:
        cluster_kw["gift_mu"] = config["gift_mu"]
    if "tbf_rates" in config:  # JSON object keys are strings
        cluster_kw["tbf_rates"] = {int(job): rate for job, rate
                                   in config["tbf_rates"].items()}
    specs = [JobSpec(job_id=1, user="userA", nodes=config.get("nodes1", 4)),
             JobSpec(job_id=2, user="userB", nodes=config.get("nodes2", 1))]
    result = run_experiment(timeline(
        config.get("policy", "job-fair"), specs, config.get("scale", 0.25),
        config.get("seed", 0), config.get("n_servers", 1), **cluster_kw))
    interval = result.config.sample_interval
    t2_start, t2_end = result.config.jobs[1].start, result.config.jobs[1].stop
    # Solo window: job 1 alone, skipping startup; sharing window: both
    # active, trimmed at the edges.
    t0 = t2_start + 2 * interval
    out = {
        "solo_median": float(result.median_throughput(1, t0=2 * interval,
                                                      t1=t2_start)),
        "shared_medians": {str(j): float(result.median_throughput(
            j, t0=t0, t1=t2_end)) for j in (1, 2)},
        "shared_stddev": {str(j): float(result.stddev_throughput(
            j, t0=t0, t1=t2_end)) for j in (1, 2)},
        "total": float(result.window_throughput(t0, t2_end)),
    }
    if "threshold" in config:
        target = out["shared_medians"]["2"] * config["threshold"]
        out["time_to_fair_share"] = None
        for t, rate in zip(*result.series(2)):
            if target > 0 and t + interval > t2_start and rate >= target:
                out["time_to_fair_share"] = max(0.0, float(t - t2_start))
                break
    return out


def steady_cell(config: Dict) -> Dict:
    """Per-job medians plus rollups by user/group for a composite policy.

    Config keys: ``policy``, ``jobs`` (a list of ``{"user", "nodes",
    optional "group"}``; job ids count from 1), optional ``scale``
    (0.25), ``seed`` (0), ``n_servers`` (1).
    """
    specs = [JobSpec(job_id=i + 1, **job)
             for i, job in enumerate(config["jobs"])]
    scale = config.get("scale", 0.25)
    result = run_experiment(timeline(
        config["policy"], specs, scale, config.get("seed", 0),
        config.get("n_servers", 1), join=0.0, leave=60.0))
    out = {"job_medians": {}, "user_totals": {}, "group_totals": {}}
    for spec in specs:
        # t0 skips the paper's "slow startup" window.
        median = float(result.median_throughput(
            spec.job_id, t0=10.0 * scale, t1=60.0 * scale))
        out["job_medians"][str(spec.job_id)] = median
        for rollup, entity in (("user_totals", spec.user),
                               ("group_totals", spec.group)):
            out[rollup][entity] = out[rollup].get(entity, 0.0) + median
    out["total"] = ordered_sum(out["job_medians"].values())
    return out


def fig07_cell(config: Dict) -> Dict:
    """One (policy, mode, n_servers) cell of the Fig. 7 scaling grid;
    config keys are the arguments of :func:`fig07_scenario`."""
    result = run_experiment(fig07_scenario(**config))
    duration = result.config.jobs[0].stop
    # steady window, skipping ramp-up
    return {"throughput": float(result.window_throughput(duration * 0.25,
                                                         duration))}


def fig14_cell(config: Dict) -> Dict:
    """One λ point of the Fig. 14 ladder; config keys are the arguments
    of :func:`fig14_scenario`."""
    result = run_experiment(fig14_scenario(**config))
    observed = ShareTimeline(result.sampler,
                             interval=result.config.sample_interval,
                             start=0.0, end=result.config.jobs[0].stop)
    conv = convergence_interval(observed, {1: 0.5, 2: 0.25, 3: 0.25},
                                tolerance=0.12, sustain=2)
    # Variance of job 1's observed share after convergence.
    shares = observed.share_series(1)
    tail = shares[len(shares) // 2:]
    return {
        "intervals_to_fairness": None if conv is None else int(conv),
        "share_variance": float(tail.var()) if len(tail) else 0.0,
    }


def app_cell(config: Dict) -> Dict:
    """One application run's time-to-solution; config keys are the
    arguments of :func:`app_scenario`."""
    result = run_experiment(app_scenario(**config))
    return {"time_to_solution": float(result.time_to_solution(1))}


def datawarp_cell(config: Dict) -> Dict:
    """Total and per-job throughput under one provisioning regime;
    config keys are the arguments of :func:`datawarp_scenario`."""
    result = run_experiment(datawarp_scenario(**config))
    duration = result.config.jobs[0].stop
    rates = {run.spec: float(result.window_throughput(
        duration * 0.25, duration, run.spec.job_id))
        for run in result.config.jobs}
    return {
        "per_job": {str(spec.job_id): rate for spec, rate in rates.items()},
        "total": ordered_sum(rates.values()),
        # Weighted fairness: rate per entitled node should be even.
        "jain": jain_index([rate / spec.nodes
                            for spec, rate in rates.items()]),
    }


def sync_cost_cell(config: Dict) -> Dict:
    """One (cluster size, fanout) point of the λ-sync cost ladder.

    Config keys: ``n_servers``, optional ``fanout`` (0: the height-1
    tree, every peer a child of the root), ``epochs`` (6).

    Every server starts knowing the same 48 idle jobs (converged,
    churn-free tables), so the traffic is the protocol's steady-state
    floor. All results are simulated wire accounting, per driven epoch:
    ``root_in_bytes_per_epoch`` is the gather payload the epoch's root
    absorbs (linear in N at fanout 0, bounded by fanout x table size
    under a tree), ``bytes_per_epoch`` the bytes on all links,
    ``max_fanin`` the most gather replies any node awaited at once.
    """
    epochs = int(config.get("epochs", 6))
    cluster = Cluster(ClusterConfig(
        n_servers=int(config["n_servers"]), policy="job-fair",
        server=ServerConfig(
            bandwidth=1 * GB, n_workers=1, client_pool_workers=1,
            sync_tree_fanout=int(config.get("fanout", 0)))))
    for server in cluster.servers.values():
        for i in range(48):
            server.monitor.table.observe(
                JobInfo(job_id=i, user=f"u{i % 4}", group=f"g{i % 2}",
                        size=i % 8 + 1), 0.0)
    cluster.run(until=(epochs + 0.5) * cluster.config.server.sync_interval)
    stats = cluster.sync_stats()
    fabric = cluster.fabric
    driven = max(1, stats["coordinated_rounds"])
    return {
        "epochs": int(stats["coordinated_rounds"]),
        "root_in_bytes_per_epoch":
            round(stats["coord_gather_payload_bytes"] / driven),
        "bytes_per_epoch": round(fabric.bytes_sent / driven),
        "messages_per_epoch": round(fabric.messages_sent / driven),
        "max_fanin": int(stats["max_gather_fanin"]),
    }


def _job_rates(result: ExperimentResult, t0: float, t1: float) -> List[float]:
    return [result.window_throughput(t0, t1, run.spec.job_id)
            for run in result.config.jobs]


def outage_cell(config: Dict) -> Dict:
    """What an N-job run looked like through one server crash + restart;
    config keys are the arguments of :func:`outage_scenario`."""
    return outage_row(run_experiment(outage_scenario(**config)))


def outage_row(result: ExperimentResult) -> Dict:
    """The :func:`outage_cell` result of a finished outage run.

    ``recovery_time`` is restart-to-first-served-request on the crashed
    server (None if nothing completed there after the restart);
    ``jain_*`` are Jain fairness indices of per-job throughput before
    the crash, during the outage, and after the rejoin settles;
    ``counters`` is the run's :class:`~repro.metrics.FaultStats`.
    """
    crash = result.config.faults.faults[0]
    # Two client timeouts let retries / failbacks drain out of a window.
    settle = 2 * result.config.cluster.client.rpc_timeout
    server = result.cluster.servers[crash.server]
    recovery = None
    if (server.first_completion_after_restart is not None
            and server.restarted_at is not None):
        recovery = float(server.first_completion_after_restart
                         - server.restarted_at)
    return {
        "crashed_server": crash.server,
        "outage_window": [crash.at, crash.restart_at],
        "end_time": float(result.end_time),
        "recovery_time": recovery,
        "jain_before": jain_index(_job_rates(result, settle, crash.at)),
        "jain_during": jain_index(_job_rates(
            result, crash.at + settle, crash.restart_at)),
        "jain_after": jain_index(_job_rates(
            result, crash.restart_at + settle, result.config.jobs[0].stop)),
        "counters": result.cluster.fault_stats.snapshot(),
    }


# =====================================================================
# Figures: the points a figure's arguments expand to (with the shape
# the paper expects of them) and the table its rows print as.
# =====================================================================

def _fig08_points(policy: str, scale: float = 0.25,
                  seed: int = 0) -> List[Dict]:
    """Fig. 8(a)/(b): a 4-node job competing with a 1-node job under
    size-fair or job-fair. Expected shapes: size-fair -> ~4x ratio,
    job-fair -> ~1x, solo median near the 22 GB/s device limit."""
    return [{"policy": policy, "scale": scale, "seed": seed}]


def sharing_ratio(row: Dict) -> float:
    """Job 1's shared median over job 2's (Fig. 8a's '3.96x')."""
    return share_ratio(row["shared_medians"]["1"], row["shared_medians"]["2"])


def _sharing_report(rows: List[Dict]) -> str:
    (row,) = rows
    body = [("job1 solo", fmt_bw(row["solo_median"]), "-")]
    for job in sorted(row["shared_medians"], key=int):
        body.append((f"job{job} shared", fmt_bw(row["shared_medians"][job]),
                     fmt_bw(row["shared_stddev"][job])))
    body.append(("total shared", fmt_bw(row["total"]), "-"))
    return table(("series", "median", "stddev"), body,
                 title=f"policy={row['policy']}")


def _users(user: str, *nodes: int, **group) -> List[Dict]:
    return [dict(user=user, nodes=n, **group) for n in nodes]


def _fig08c_points(scale: float = 0.25, seed: int = 0) -> List[Dict]:
    """Fig. 8(c): user A runs two 2-node jobs, user B one 1-node job;
    user-fair must give both users ~equal total throughput."""
    return [{"policy": "user-fair", "scale": scale, "seed": seed,
             "jobs": _users("userA", 2, 2) + _users("userB", 1)}]


def _fig09_points(scale: float = 0.25, seed: int = 0) -> List[Dict]:
    """Fig. 9: four jobs from two users (node counts 1,2 and 4,6) under
    user-then-size-fair: users split evenly, jobs 1:2 and 4:6 within."""
    return [{"policy": "user-then-size-fair", "scale": scale, "seed": seed,
             "jobs": _users("user1", 1, 2) + _users("user2", 4, 6)}]


def _fig10_points(scale: float = 0.25, seed: int = 0) -> List[Dict]:
    """Figs. 10-11: eight jobs, four users, two groups under
    group-user-size-fair: groups even, users within a group even, jobs
    within a user proportional to node count (user2's three jobs 2:3:2)."""
    return [{"policy": "group-user-size-fair", "scale": scale, "seed": seed,
             "jobs": _users("user1", 1, 2, 1, group="group1")
             + _users("user2", 2, 3, 2, group="group2")
             + _users("user3", 2, group="group2")
             + _users("user4", 2, group="group2")}]


def _composite_report(rows: List[Dict]) -> str:
    (row,) = rows
    body = [(f"job{j}", fmt_bw(row["job_medians"][j]))
            for j in sorted(row["job_medians"], key=int)]
    body += [(f"user {u}", fmt_bw(v))
             for u, v in sorted(row["user_totals"].items())]
    body += [(f"group {g}", fmt_bw(v))
             for g, v in sorted(row["group_totals"].items())]
    body.append(("total", fmt_bw(row["total"])))
    return table(("entity", "median throughput"), body,
                 title=f"policy={row['policy']}")


def _fig07_points(server_counts: Sequence[int] = (1, 2, 4, 8),
                  duration: float = 3.0, block: int = 8 * MB) -> List[Dict]:
    """Fig. 7: aggregate unidirectional throughput, FIFO vs job-fair,
    write vs read, with as many client nodes as server nodes (8 IOR
    streams per client node). Expect near-linear scaling with efficiency
    declining as counts grow (placement imbalance), FIFO ≈ job-fair."""
    return [{"policy": policy, "mode": mode, "n_servers": int(n),
             "duration": float(duration), "block": int(block)}
            for policy in ("fifo", "job-fair") for mode in ("write", "read")
            for n in server_counts]


def scaling_series(rows: List[Dict]) -> Dict[str, List[float]]:
    """``"<policy>-<mode>"`` -> B/s per server count of Fig. 7 rows."""
    series: Dict[str, List[float]] = {}
    for row in rows:
        series.setdefault(f"{row['policy']}-{row['mode']}", []).append(
            row["throughput"])
    return series


def _server_counts(rows: List[Dict]) -> List[int]:
    return list(dict.fromkeys(row["n_servers"] for row in rows))


def efficiencies(rows: List[Dict]) -> Dict[str, List[float]]:
    """Per-series scaling efficiency relative to the first count."""
    counts = _server_counts(rows)
    return {key: list(scaling_efficiency(series, counts))
            for key, series in scaling_series(rows).items()}


def _fig07_report(rows: List[Dict]) -> str:
    series = scaling_series(rows)
    counts = _server_counts(rows)
    body = [[n] + [f"{series[key][i] / GB:.1f} GB/s" for key in series]
            for i, n in enumerate(counts)]
    eff = [f"{key}: {e[-1] * 100:.0f}% at {counts[-1]}"
           for key, e in efficiencies(rows).items()]
    return (table(["servers"] + list(series), body, title="Fig. 7 scaling")
            + "\nefficiency vs 1 server: " + "; ".join(eff))


def _fig12_points(scale: float = 0.25, seed: int = 0) -> List[Dict]:
    """Fig. 12: a pair of single-node jobs under ThemisIO job-fair, GIFT
    (mu = 0.5 s) and TBF (user-supplied rates = capacity/2). Expected
    shape: ThemisIO sustains the highest peak, job 2 ramps fastest and
    with the lowest variance under ThemisIO; TBF is the most jittery."""
    base = {"nodes1": 1, "nodes2": 1, "scale": scale, "seed": seed,
            "threshold": 0.9}
    rate = ServerConfig().bandwidth / 2
    return [dict(base, policy="job-fair"),
            dict(base, policy="gift",
                 gift_mu=0.5 * max(scale / 0.25, 0.25)),
            dict(base, policy="tbf", tbf_rates={"1": rate, "2": rate})]


def _scheduler(row: Dict) -> str:
    return "themis" if row["policy"] == "job-fair" else row["policy"]


def themis_advantage(rows: List[Dict]) -> Dict[str, float]:
    """Fractional peak-throughput advantage of ThemisIO over each
    baseline of Fig. 12."""
    themis = next(r for r in rows if _scheduler(r) == "themis")
    return {_scheduler(r): themis["solo_median"] / r["solo_median"] - 1.0
            for r in rows if r is not themis and r["solo_median"] > 0}


def _fig12_report(rows: List[Dict]) -> str:
    body = [(_scheduler(r), fmt_bw(r["solo_median"]),
             fmt_bw(r["shared_medians"]["2"]),
             fmt_bw(r["shared_stddev"]["2"]), fmt_bw(r["total"]))
            for r in rows]
    return table(("scheduler", "peak (job1 solo)", "job2 shared",
                  "job2 stddev", "total shared"), body,
                 title="Fig. 12 comparison")


def _fig01_points(apps: Optional[Sequence[str]] = None,
                  seed: int = 0) -> List[Dict]:
    """Fig. 1: each §5.1 application exclusive vs. with a background I/O
    job under the production FIFO discipline, on the paper's two-node
    burst buffer; slowdowns span from a few percent (compute-bound) to
    >100% (I/O-heavy and async-I/O apps)."""
    return [{"app": app, "policy": "fifo", "background": background,
             "seed": seed, "n_servers": 2}
            for app in (apps or APP_PROFILES)
            for background in (False, True)]


def _fig13_points(apps: Optional[Sequence[str]] = None, seed: int = 0,
                  include_sync_resnet: bool = False) -> List[Dict]:
    """Fig. 13: exclusive vs FIFO+bg vs size-fair+bg. Expected shape:
    FIFO slowdowns large for I/O-sensitive apps, size-fair slowdowns
    bounded by the background job's node-count share; size-fair removes
    most of the FIFO-induced slowdown."""
    names = list(apps or APP_PROFILES)
    if include_sync_resnet:
        names.append(RESNET50_SYNC.name)
    return [{"app": app, "policy": policy, "background": background,
             "seed": seed,
             "n_servers": 2 if app.startswith("resnet") else 1}  # §5.5
            for app in names
            for policy, background in (("fifo", False), ("fifo", True),
                                       ("size-fair", True))]


def _times_to_solution(rows: List[Dict]) -> Dict[str, Dict[str, float]]:
    """app -> ``baseline`` (exclusive) / ``fifo`` / ``sizefair`` (both
    beside the background job) -> seconds."""
    out: Dict[str, Dict[str, float]] = {}
    for row in rows:
        setting = ("baseline" if not row["background"] else
                   "fifo" if row["policy"] == "fifo" else "sizefair")
        out.setdefault(row["app"], {})[setting] = row["time_to_solution"]
    return out


def slowdown(rows: List[Dict], app: str, setting: str) -> float:
    """Fractional slowdown of *app* under *setting* vs exclusive."""
    times = _times_to_solution(rows)[app]
    return times[setting] / times["baseline"] - 1.0


def slowdown_reduction(rows: List[Dict], app: str) -> float:
    """How much of the FIFO-induced slowdown size-fair removes."""
    fifo_s = slowdown(rows, app, "fifo")
    if fifo_s <= 0:
        return 0.0
    return max(0.0, (fifo_s - slowdown(rows, app, "sizefair")) / fifo_s)


def _interference_report(rows: List[Dict]) -> str:
    body = []
    for app, times in _times_to_solution(rows).items():
        row = [app, f"{times['baseline']:.2f}s", f"{times['fifo']:.2f}s "
               f"({pct(slowdown(rows, app, 'fifo'))})"]
        if "sizefair" in times:
            row += [f"{times['sizefair']:.2f}s "
                    f"({pct(slowdown(rows, app, 'sizefair'))})",
                    pct(slowdown_reduction(rows, app), signed=False)]
        body.append(row)
    headers = ["app", "exclusive", "FIFO + bg"]
    if len(body[0]) > len(headers):
        headers += ["size-fair + bg", "slowdown reduced"]
    return table(headers, body, title="Application interference")


def _datawarp_points(seed: int = 0, duration: float = 2.0) -> List[Dict]:
    """§6: DataWarp's *interference* policy gives each job a minimal,
    exclusive set of burst-buffer servers (isolated but "resource
    starvation" prone); the *bandwidth* policy spreads jobs over shared
    servers under FIFO (fast but interference-prone). ThemisIO's claim:
    shared servers + size-fair tokens gets both — high utilisation *and*
    per-job fairness. Expected shape: isolation wastes the light jobs'
    servers (lowest total); FIFO sharing is fast but skewed toward the
    heavy jobs beyond their entitlement; size-fair keeps the total high
    while holding jobs near their node-count shares."""
    return [{"regime": regime, "seed": seed, "duration": duration}
            for regime in ("isolated", "fifo-shared", "themis")]


def _datawarp_report(rows: List[Dict]) -> str:
    body = [(r["regime"], fmt_bw(r["total"]), f"{r['jain']:.3f}",
             ", ".join(f"j{j}={v / 1e9:.1f}" for j, v in
                       sorted(r["per_job"].items(), key=lambda kv: int(kv[0]))))
            for r in rows]
    return table(("regime", "total", "weighted Jain", "per-job GB/s"),
                 body, title="DataWarp provisioning vs ThemisIO (§6)")


def _fig14_points(lambdas: Sequence[float] = (0.010, 0.050, 0.200, 0.500),
                  seed: int = 0) -> List[Dict]:
    """Fig. 14 (the Fig. 5 scenario measured): three size-fair jobs (16,
    8, 8 nodes) whose files live on disjoint servers; vary λ. Expected:
    global fairness within a couple of intervals for λ >= 50 ms, more
    intervals at 10 ms, and higher share variance at shorter λ."""
    return [{"lam": float(lam), "seed": int(seed)} for lam in lambdas]


def _fig14_report(rows: List[Dict]) -> str:
    body = [(f"{r['lam'] * 1000:.0f} ms",
             "never" if r["intervals_to_fairness"] is None
             else str(r["intervals_to_fairness"]),
             f"{r['share_variance']:.4f}") for r in rows]
    return table(("lambda", "intervals to global fairness",
                  "share variance"),
                 body, title="Fig. 14 lambda-delayed fairness")


def _sync_ladder_points(server_counts: Sequence[int] = (16, 64, 256, 1024),
                        fanouts: Sequence[int] = (0, 8),
                        epochs: int = 6) -> List[Dict]:
    """The λ-sync cost ladder: root-inbound gather bytes per epoch stay
    linear in N at fanout 0 and become constant under the fanout-8
    tree, at ~4(N-1) messages per epoch either way."""
    return [{"n_servers": int(n), "fanout": int(fanout),
             "epochs": int(epochs)}
            for n in server_counts for fanout in fanouts]


def _sync_ladder_report(rows: List[Dict]) -> str:
    body = [(f"{r['n_servers']:,}", r["fanout"],
             f"{r['root_in_bytes_per_epoch']:,}",
             f"{r['bytes_per_epoch']:,}",
             f"{r['messages_per_epoch']:,}", f"{r['max_fanin']:,}")
            for r in rows]
    return table(("servers", "fanout", "root-in B/epoch", "total B/epoch",
                  "msgs/epoch", "peak fan-in"),
                 body, title="lambda-sync cost ladder")


def _outage_points(seed: int = 0, **scenario_kw) -> List[Dict]:
    """Availability under a server outage (§7's open problem,
    exercised): N jobs write/read through a crash + restart of one of
    the servers. Expected shape: throughput dips but never deadlocks
    during the outage, the crashed server serves again within a few
    client-timeout periods of its restart, and Jain fairness after the
    rejoin returns to the pre-crash level."""
    return [dict(scenario_kw, seed=seed)]


def _outage_report(rows: List[Dict]) -> str:
    (row,) = rows
    crash_at, restart_at = row["outage_window"]
    counters = FaultStats(**row["counters"])
    rec = ("n/a" if row["recovery_time"] is None
           else f"{row['recovery_time'] * 1000:.1f} ms")
    body = [
        ("crashed server", row["crashed_server"]),
        ("outage window", f"[{crash_at:.2f}s, {restart_at:.2f}s)"),
        ("recovery time", rec),
        ("Jain before crash", f"{row['jain_before']:.3f}"),
        ("Jain during outage", f"{row['jain_during']:.3f}"),
        ("Jain after rejoin", f"{row['jain_after']:.3f}"),
        ("requests retried", str(counters.retries)),
        ("rpc timeouts", str(counters.rpc_timeouts)),
        ("failovers", str(counters.failovers)),
        ("requests failed", str(counters.requests_failed)),
        ("dropped in crash", str(counters.requests_dropped_in_crash)),
        ("duplicate requests", str(counters.duplicate_requests)),
        ("degraded sync rounds", str(counters.degraded_sync_rounds)),
    ]
    return (table(("metric", "value"), body,
                  title="Availability under one server outage")
            + "\n\nfault counters:\n" + counters.report())


class Figure(NamedTuple):
    """One row of :data:`FIGURES`."""

    cell: Callable[[Dict], Dict]         #: config -> result, one point
    points: Callable[..., List[Dict]]    #: keyword arguments -> configs
    report: Callable[[List[Dict]], str]  #: rows -> the printed table


#: The one list of experiments: ``figures`` and ``figure NAME`` read it.
FIGURES: Dict[str, Figure] = {
    "fig01": Figure(app_cell, _fig01_points, _interference_report),
    "fig07": Figure(fig07_cell, _fig07_points, _fig07_report),
    "fig08a": Figure(sharing_cell, partial(_fig08_points, "size-fair"),
                     _sharing_report),
    "fig08b": Figure(sharing_cell, partial(_fig08_points, "job-fair"),
                     _sharing_report),
    "fig08c": Figure(steady_cell, _fig08c_points, _composite_report),
    "fig09": Figure(steady_cell, _fig09_points, _composite_report),
    "fig10": Figure(steady_cell, _fig10_points, _composite_report),
    "fig12": Figure(sharing_cell, _fig12_points, _fig12_report),
    "fig13": Figure(app_cell, _fig13_points, _interference_report),
    "fig14": Figure(fig14_cell, _fig14_points, _fig14_report),
    "datawarp": Figure(datawarp_cell, _datawarp_points, _datawarp_report),
    "sync-ladder": Figure(sync_cost_cell, _sync_ladder_points,
                          _sync_ladder_report),
    "outage": Figure(outage_cell, _outage_points, _outage_report),
}


def _compute(task: Tuple[str, Callable[[Dict], Dict], Dict]
             ) -> Tuple[str, Dict]:
    """One cold point: ``(key, cell, config) -> (key, result)``.

    Module-level, as is every cell, because ``spawn`` workers receive
    both by qualified name (pickled by reference): a lambda or a
    ``partial`` cannot cross the process boundary.
    """
    key, cell, config = task
    return key, cell(dict(config))


def run_points(cell: Callable[[Dict], Dict], configs: Sequence[Dict],
               workspace: Optional[Workspace] = None, jobs: int = 1
               ) -> Tuple[List[Dict], int]:
    """Run *cell* on every config: the rows in config order (each config
    merged with its result) and how many the *workspace* served.

    A point's key is the cell's ``__name__``, its config and
    :func:`code_rev`; stored points are read back, and cold ones are
    computed once per distinct key and written back. Cold points run
    in-process when ``jobs <= 1``, else over a ``spawn`` pool of
    ``min(jobs, cold)`` workers. Serial, pooled and replayed runs return
    equal rows because points share nothing: each cell builds its own
    world from its config and seed (``repro.lint`` rule SIM004 polices
    the worker boundary), results are reassembled by key, not in
    completion order, and the store holds canonical JSON.
    """
    rev = code_rev() if workspace is not None else ""
    keys = [point_key(cell.__name__, config, rev) for config in configs]
    results: Dict[str, Dict] = {}
    cold: Dict[str, Dict] = {}
    for key, config in zip(keys, configs):
        if key in results or key in cold:
            continue
        blob = workspace.get(key) if workspace is not None else None
        if blob is not None:
            results[key] = blob["result"]
        else:
            cold[key] = config
    tasks = [(key, cell, config) for key, config in cold.items()]
    if jobs <= 1 or len(tasks) <= 1:
        computed = [_compute(task) for task in tasks]
    else:
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(processes=min(jobs, len(tasks))) as pool:
            computed = list(pool.imap_unordered(_compute, tasks, chunksize=1))
    for key, result in computed:
        results[key] = result
        if workspace is not None:
            workspace.put(key, cell.__name__, cold[key], result, rev)
    rows = [dict(config, **results[key]) for key, config in zip(keys, configs)]
    return rows, sum(key not in cold for key in keys)


def run_figure(name: str, workspace: Optional[Workspace] = None,
               jobs: int = 1, **params) -> List[Dict]:
    """Run figure *name*'s points and return its rows, in point order.

    *params* are the keyword arguments of the figure's points function
    (Fig. 7 at the paper's 128 servers is ``run_figure("fig07",
    server_counts=(1, 2, 4, ..., 128))``); ``workspace`` and ``jobs`` go
    to :func:`run_points`. ``FIGURES[name].report(rows)`` prints them.
    """
    figure = FIGURES[name]
    rows, _hits = run_points(figure.cell, figure.points(**params),
                             workspace, jobs)
    return rows
