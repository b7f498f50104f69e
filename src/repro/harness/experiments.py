"""Per-figure experiment definitions (§5).

One function per table/figure of the paper's evaluation. Each returns a
result object with the measured rows plus a ``report()`` string printing
the same rows/series the paper shows. Magnitudes are simulation-scale
(seconds-long runs, multi-MB requests; see DESIGN.md §4.4) — the shapes
(who wins, approximate ratios, crossovers) are the reproduction target.

The ``scale`` parameter shortens the paper's 60 s timelines (default
0.25: job 1 runs 15 s, job 2 runs 7.5 s starting at +3.75 s) to keep
event counts tractable; ratios are time-scale invariant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..bb.client import ClientConfig
from ..bb.cluster import Cluster, ClusterConfig
from ..bb.server import ServerConfig
from ..core.jobinfo import JobInfo
from ..faults import FaultInjector, FaultPlan, ServerCrash
from ..fs.hashing import ConsistentHashRing
from ..metrics.stats import jain_index, scaling_efficiency, share_ratio
from ..metrics.timeline import ShareTimeline, convergence_interval
from ..units import GB, MB, fmt_bw
from ..workloads.apps import (APP_PROFILES, RESNET50, ApplicationWorkload,
                              AppProfile)
from ..workloads.custom import IopsWriteRead, PinnedWriter, WriteReadCycle
from ..workloads.ior import IORWorkload
from ..workloads.base import JobSpec
from .config import ExperimentConfig, JobRun
from .report import pct, table
from .runner import ExperimentResult, run_experiment

__all__ = [
    "SharingResult", "run_sharing_experiment",
    "fig01_interference", "fig07_scaling", "fig08_primitive",
    "fig09_user_then_size", "fig10_group_user_size", "fig12_baselines",
    "fig13_applications", "fig14_lambda", "related_datawarp",
    "InterferenceResult", "ScalingResult", "BaselineComparison",
    "LambdaResult", "CompositeResult", "ProvisioningResult",
    "SyncLadderResult", "sync_ladder",
    "AvailabilityResult", "availability_outage",
    "RepairFairnessResult", "repair_fairness", "REPAIR_POLICIES",
    "sharing_cell", "fig07_cell", "fig14_cell", "sync_cost_cell",
    "repair_cell",
]

#: background interference job of §5.5: one node of small write/read cycles.
_BG_STREAMS = 32
_BG_FILE = 4 * MB


def _bg_workload() -> IopsWriteRead:
    return IopsWriteRead(file_size=_BG_FILE, streams_per_node=_BG_STREAMS)


# =====================================================================
# Generic two-phase sharing run (the Fig. 8 / Fig. 12 shape):
# job 1 runs [0, 60s*scale); job 2 runs [15s*scale, 45s*scale).
# =====================================================================

@dataclass
class SharingResult:
    """Measurements of one two-job sharing run."""

    policy: str
    result: ExperimentResult
    t_job2_start: float
    t_job2_end: float
    solo_median: float        # job 1 unopposed (before job 2 arrives)
    shared_medians: Dict[int, float]
    shared_stddev: Dict[int, float]
    peak_throughput: float    # total, sharing window

    def report(self) -> str:
        """The paper-style medians/stddev table for this run."""
        rows = [("job1 solo", fmt_bw(self.solo_median), "-")]
        for job_id in sorted(self.shared_medians):
            rows.append((f"job{job_id} shared",
                         fmt_bw(self.shared_medians[job_id]),
                         fmt_bw(self.shared_stddev[job_id])))
        rows.append(("total shared", fmt_bw(self.peak_throughput), "-"))
        return table(("series", "median", "stddev"), rows,
                     title=f"policy={self.policy}")

    def time_to_fair_share(self, job_id: int = 2,
                           threshold: float = 0.9) -> Optional[float]:
        """§5.4's "latency to fair-sharing": seconds from the late job's
        start until its throughput first sustains *threshold* of its
        eventual shared median (None if never). Distinguishes ThemisIO's
        immediate token reallocation from GIFT's epoch-lagged budgets."""
        target = self.shared_medians.get(job_id, 0.0) * threshold
        if target <= 0:
            return None
        interval = self.result.config.sample_interval
        times, rates = self.result.series(job_id)
        for t, rate in zip(times, rates):
            if t + interval <= self.t_job2_start:
                continue
            if rate >= target:
                return max(0.0, t - self.t_job2_start)
        return None


def run_sharing_experiment(policy: str, jobs: Sequence[JobRun],
                           n_servers: int = 1, scale: float = 0.25,
                           seed: int = 0, sample_interval: Optional[float] = None,
                           server: Optional[ServerConfig] = None,
                           **cluster_kw) -> ExperimentResult:
    """Run *jobs* against one cluster under *policy* and return raw results."""
    cfg = ExperimentConfig(
        cluster=ClusterConfig(n_servers=n_servers, policy=policy,
                              server=server or ServerConfig(), seed=seed,
                              **cluster_kw),
        jobs=list(jobs),
        max_time=max((run.stop or 0.0) for run in jobs) + 1.0,
        sample_interval=sample_interval or max(0.1, scale),
    )
    return run_experiment(cfg)


def _two_job_run(policy: str, spec1: JobSpec, spec2: JobSpec,
                 scale: float, seed: int,
                 workload_factory=None, **cluster_kw) -> SharingResult:
    """The paper's canonical timeline: job 1 for 60 s, job 2 for 30 s
    starting at +15 s (times scaled)."""
    t1_end = 60.0 * scale
    t2_start, t2_end = 15.0 * scale, 45.0 * scale
    # 16 streams/node keeps even a 1-node job saturating (the paper's
    # jobs run 56 processes per node).
    make = workload_factory or (lambda: WriteReadCycle(
        file_size=10 * MB, streams_per_node=16))
    jobs = [
        JobRun(spec=spec1, workload=make(), start=0.0, stop=t1_end),
        JobRun(spec=spec2, workload=make(), start=t2_start, stop=t2_end),
    ]
    result = run_sharing_experiment(policy, jobs, scale=scale, seed=seed,
                                    **cluster_kw)
    interval = result.config.sample_interval
    # Solo window: job 1 alone, skipping startup; sharing window: both
    # active, trimmed at the edges.
    solo = result.median_throughput(spec1.job_id, t0=2 * interval,
                                    t1=t2_start)
    shared = {}
    sdev = {}
    for spec in (spec1, spec2):
        shared[spec.job_id] = result.median_throughput(
            spec.job_id, t0=t2_start + 2 * interval, t1=t2_end)
        sdev[spec.job_id] = result.stddev_throughput(
            spec.job_id, t0=t2_start + 2 * interval, t1=t2_end)
    peak = result.window_throughput(t2_start + 2 * interval, t2_end)
    return SharingResult(policy=policy, result=result,
                         t_job2_start=t2_start, t_job2_end=t2_end,
                         solo_median=solo, shared_medians=shared,
                         shared_stddev=sdev, peak_throughput=peak)


# =====================================================================
# Sweep point functions (repro.harness.sweep POINT_KINDS targets).
# Each takes one fully-resolved config dict and returns a JSON-able
# result; all state lives inside the call, so points are safe to run
# in any order, in any process (the sweep determinism contract).
# =====================================================================

def sharing_cell(config: Dict) -> Dict:
    """One two-job sharing point: the Fig. 8 timeline as a sweep cell.

    Config keys: ``policy``, ``seed``, optional ``nodes1`` (4),
    ``nodes2`` (1), ``scale`` (0.25), ``n_servers`` (1).
    """
    spec1 = JobSpec(job_id=1, user="userA",
                    nodes=int(config.get("nodes1", 4)))
    spec2 = JobSpec(job_id=2, user="userB",
                    nodes=int(config.get("nodes2", 1)))
    out = _two_job_run(str(config.get("policy", "job-fair")), spec1, spec2,
                       float(config.get("scale", 0.25)),
                       int(config.get("seed", 0)),
                       n_servers=int(config.get("n_servers", 1)))
    return {
        "solo_median": float(out.solo_median),
        "shared_medians": {str(j): float(out.shared_medians[j])
                           for j in sorted(out.shared_medians)},
        "shared_stddev": {str(j): float(out.shared_stddev[j])
                          for j in sorted(out.shared_stddev)},
        "total": float(out.peak_throughput),
    }


def fig07_cell(config: Dict) -> Dict:
    """One (policy, mode, n_servers) cell of the Fig. 7 scaling grid.

    Config keys: ``policy``, ``mode``, ``n_servers``, optional
    ``duration`` (3.0), ``block`` (8 MB), ``seed`` (0).
    """
    n = int(config["n_servers"])
    duration = float(config.get("duration", 3.0))
    jobs = [JobRun(
        spec=JobSpec(job_id=i + 1, user=f"u{i}", nodes=1),
        workload=IORWorkload(file_size=64 * MB,
                             block_size=int(config.get("block", 8 * MB)),
                             mode=str(config["mode"]), streams_per_node=8),
        start=0.0, stop=duration) for i in range(n)]
    result = run_sharing_experiment(
        str(config["policy"]), jobs, n_servers=n, scale=duration / 60.0,
        seed=int(config.get("seed", 0)), sample_interval=0.25)
    # steady window, skipping ramp-up
    return {"throughput": float(result.window_throughput(duration * 0.25,
                                                         duration))}


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


def fig14_cell(config: Dict) -> Dict:
    """One λ point of the Fig. 14 ladder (the Fig. 5 scenario measured).

    Config keys: ``lam`` (the sync interval, seconds), optional
    ``seed`` (0).
    """
    lam = float(config["lam"])
    seed = int(config.get("seed", 0))
    by_server = _pinned_paths(2, 2)
    s0_paths, s1_paths = by_server["bb0"], by_server["bb1"]
    fair = {1: 0.5, 2: 0.25, 3: 0.25}
    duration = max(8 * lam, 0.8)
    server = ServerConfig(sync_interval=lam)
    jobs = [
        # Job 1 (16 nodes) touches both servers; jobs 2 and 3 one each.
        JobRun(spec=JobSpec(job_id=1, user="u1", nodes=16),
               workload=PinnedWriter([s0_paths[0], s1_paths[0]],
                                     request_size=2 * MB,
                                     streams_per_node=8),
               start=0.0, stop=duration),
        JobRun(spec=JobSpec(job_id=2, user="u2", nodes=8),
               workload=PinnedWriter([s0_paths[1]], request_size=2 * MB,
                                     streams_per_node=8),
               start=0.0, stop=duration),
        JobRun(spec=JobSpec(job_id=3, user="u3", nodes=8),
               workload=PinnedWriter([s1_paths[1]], request_size=2 * MB,
                                     streams_per_node=8),
               start=0.0, stop=duration),
    ]
    result = run_sharing_experiment("size-fair", jobs, n_servers=2,
                                    scale=duration / 60.0, seed=seed,
                                    sample_interval=lam, server=server)
    timeline = ShareTimeline(result.sampler, interval=lam,
                             start=0.0, end=duration)
    conv = convergence_interval(timeline, fair, tolerance=0.12, sustain=2)
    # Variance of job 1's observed share after convergence.
    shares = timeline.share_series(1)
    tail = shares[len(shares) // 2:]
    return {
        "intervals_to_fairness": None if conv is None else int(conv),
        "share_variance": float(tail.var()) if len(tail) else 0.0,
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
    under a tree), ``payload_bytes_per_epoch`` the delta-encoded bytes
    on all links against the full-table ``nominal_bytes_per_epoch``
    that carry the timing, ``max_fanin`` the most gather replies any
    node awaited at once.
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
        "payload_bytes_per_epoch": round(fabric.payload_bytes_sent / driven),
        "nominal_bytes_per_epoch": round(fabric.bytes_sent / driven),
        "messages_per_epoch": round(fabric.messages_sent / driven),
        "max_fanin": int(stats["max_gather_fanin"]),
    }


# =====================================================================
# Fig. 8 — primitive policies on a single server
# =====================================================================

def fig08_primitive(policy: str = "size-fair", scale: float = 0.25,
                    seed: int = 0):
    """Fig. 8(a)/(b): a 4-node job competing with a 1-node job under
    size-fair or job-fair; (c): user-fair with two users (see
    :func:`fig08c_user_fair`). Expected shapes: size-fair -> ~4x ratio,
    job-fair -> ~1x, solo median near the 22 GB/s device limit."""
    spec1 = JobSpec(job_id=1, user="userA", nodes=4)
    spec2 = JobSpec(job_id=2, user="userB", nodes=1)
    out = _two_job_run(policy, spec1, spec2, scale, seed)
    out.ratio = share_ratio(out.shared_medians[1], out.shared_medians[2])
    return out


@dataclass
class CompositeResult:
    """Per-job medians plus rollups by user/group for composite policies."""

    policy: str
    result: ExperimentResult
    job_medians: Dict[int, float]
    user_totals: Dict[str, float]
    group_totals: Dict[str, float]
    total: float

    def report(self) -> str:
        """Per-job and rolled-up entity throughput table."""
        rows = [(f"job{j}", fmt_bw(v)) for j, v in sorted(self.job_medians.items())]
        rows += [(f"user {u}", fmt_bw(v)) for u, v in sorted(self.user_totals.items())]
        rows += [(f"group {g}", fmt_bw(v)) for g, v in sorted(self.group_totals.items())]
        rows.append(("total", fmt_bw(self.total)))
        return table(("entity", "median throughput"), rows,
                     title=f"policy={self.policy}")


def _steady_composite(policy: str, specs: Sequence[JobSpec], scale: float,
                      seed: int, n_servers: int = 1) -> CompositeResult:
    """All jobs run concurrently for the full (scaled) 60 s window."""
    t_end = 60.0 * scale
    jobs = [JobRun(spec=s, workload=WriteReadCycle(file_size=10 * MB,
                                                   streams_per_node=16),
                   start=0.0, stop=t_end) for s in specs]
    result = run_sharing_experiment(policy, jobs, n_servers=n_servers,
                                    scale=scale, seed=seed)
    interval = result.config.sample_interval
    t0 = 10.0 * scale  # skip the paper's "slow startup" window
    job_medians = {s.job_id: result.median_throughput(s.job_id, t0=t0,
                                                      t1=t_end)
                   for s in specs}
    user_totals: Dict[str, float] = {}
    group_totals: Dict[str, float] = {}
    for s in specs:
        user_totals[s.user] = user_totals.get(s.user, 0.0) + job_medians[s.job_id]
        group_totals[s.group] = (group_totals.get(s.group, 0.0)
                                 + job_medians[s.job_id])
    return CompositeResult(policy=policy, result=result,
                           job_medians=job_medians, user_totals=user_totals,
                           group_totals=group_totals,
                           total=sum(job_medians.values()))


def fig08c_user_fair(scale: float = 0.25, seed: int = 0) -> CompositeResult:
    """Fig. 8(c): user A runs two 2-node jobs, user B one 1-node job;
    user-fair must give both users ~equal total throughput."""
    specs = [JobSpec(job_id=1, user="userA", nodes=2),
             JobSpec(job_id=2, user="userA", nodes=2),
             JobSpec(job_id=3, user="userB", nodes=1)]
    return _steady_composite("user-fair", specs, scale, seed)


def fig09_user_then_size(scale: float = 0.25, seed: int = 0) -> CompositeResult:
    """Fig. 9: four jobs from two users (node counts 1,2 and 4,6) under
    user-then-size-fair: users split evenly, jobs 1:2 and 4:6 within."""
    specs = [JobSpec(job_id=1, user="user1", nodes=1),
             JobSpec(job_id=2, user="user1", nodes=2),
             JobSpec(job_id=3, user="user2", nodes=4),
             JobSpec(job_id=4, user="user2", nodes=6)]
    return _steady_composite("user-then-size-fair", specs, scale, seed)


def fig10_group_user_size(scale: float = 0.25, seed: int = 0) -> CompositeResult:
    """Figs. 10-11: eight jobs, four users, two groups under
    group-user-size-fair: groups even, users within a group even, jobs
    within a user proportional to node count (user2's three jobs 2:3:2)."""
    specs = [
        JobSpec(job_id=1, user="user1", group="group1", nodes=1),
        JobSpec(job_id=2, user="user1", group="group1", nodes=2),
        JobSpec(job_id=3, user="user1", group="group1", nodes=1),
        JobSpec(job_id=4, user="user2", group="group2", nodes=2),
        JobSpec(job_id=5, user="user2", group="group2", nodes=3),
        JobSpec(job_id=6, user="user2", group="group2", nodes=2),
        JobSpec(job_id=7, user="user3", group="group2", nodes=2),
        JobSpec(job_id=8, user="user4", group="group2", nodes=2),
    ]
    return _steady_composite("group-user-size-fair", specs, scale, seed)


# =====================================================================
# Fig. 7 — scaling with multiple servers
# =====================================================================

@dataclass
class ScalingResult:
    server_counts: List[int]
    rows: Dict[str, List[float]]  # "<policy>-<op>" -> GB/s per count

    @property
    def efficiencies(self) -> Dict[str, List[float]]:
        """Per-series scaling efficiency relative to the first count."""
        return {key: list(scaling_efficiency(series, self.server_counts))
                for key, series in self.rows.items()}

    def report(self) -> str:
        """The Fig. 7 throughput table plus efficiency summary."""
        headers = ["servers"] + list(self.rows)
        body = []
        for i, n in enumerate(self.server_counts):
            body.append([n] + [f"{self.rows[k][i] / GB:.1f} GB/s"
                               for k in self.rows])
        eff = [f"{key}: {e[-1] * 100:.0f}% at {self.server_counts[-1]}"
               for key, e in self.efficiencies.items()]
        return (table(headers, body, title="Fig. 7 scaling") +
                "\nefficiency vs 1 server: " + "; ".join(eff))


def fig07_scaling(server_counts: Sequence[int] = (1, 2, 4, 8),
                  duration: float = 3.0, block: int = 8 * MB,
                  seed: int = 0, workspace=None, jobs: int = 1
                  ) -> ScalingResult:
    """Fig. 7: aggregate unidirectional throughput, FIFO vs job-fair,
    write vs read, with as many client nodes as server nodes (8 IOR
    streams per client node). Expect near-linear scaling with efficiency
    declining as counts grow (placement imbalance), FIFO ≈ job-fair.

    Each (policy, mode, N) cell runs as an independent sweep point (see
    :func:`fig07_cell`): pass a ``workspace`` to cache cells across
    invocations and ``jobs`` to fan cold cells out over processes.
    """
    from .sweep import ParallelRunner
    keys: List[str] = []
    points = []
    for policy in ("fifo", "job-fair"):
        for mode in ("write", "read"):
            keys.append(f"{policy}-{mode}")
            for n in server_counts:
                points.append(("fig07_cell", {
                    "policy": policy, "mode": mode, "n_servers": int(n),
                    "duration": float(duration), "block": int(block),
                    "seed": int(seed)}))
    run = ParallelRunner(workspace=workspace, jobs=jobs).run_points(points)
    outcomes = iter(run.points)
    rows: Dict[str, List[float]] = {}
    for key in keys:
        rows[key] = [float(next(outcomes).result["throughput"])
                     for _ in server_counts]
    return ScalingResult(server_counts=list(server_counts), rows=rows)


# =====================================================================
# Fig. 12 — ThemisIO vs GIFT vs TBF
# =====================================================================

@dataclass
class BaselineComparison:
    rows: Dict[str, SharingResult]

    def report(self) -> str:
        """The Fig. 12 scheduler-comparison table."""
        body = []
        for name, r in self.rows.items():
            body.append((name, fmt_bw(r.solo_median),
                         fmt_bw(r.shared_medians[2]),
                         fmt_bw(r.shared_stddev[2]),
                         fmt_bw(r.peak_throughput)))
        return table(("scheduler", "peak (job1 solo)", "job2 shared",
                      "job2 stddev", "total shared"), body,
                     title="Fig. 12 comparison")

    def themis_advantage(self) -> Dict[str, float]:
        """Fractional throughput advantage of ThemisIO over each baseline."""
        themis = self.rows["themis"]
        out = {}
        for name, r in self.rows.items():
            if name != "themis" and r.solo_median > 0:
                out[name] = themis.solo_median / r.solo_median - 1.0
        return out


def fig12_baselines(scale: float = 0.25, seed: int = 0) -> BaselineComparison:
    """Fig. 12: a pair of single-node jobs under ThemisIO job-fair, GIFT
    (mu = 0.5 s) and TBF (user-supplied rates = capacity/2). Expected
    shape: ThemisIO sustains the highest peak, job 2 ramps fastest and
    with the lowest variance under ThemisIO; TBF is the most jittery."""
    spec1 = JobSpec(job_id=1, user="u1", nodes=1)
    spec2 = JobSpec(job_id=2, user="u2", nodes=1)
    bandwidth = ServerConfig().bandwidth
    runs = {}
    runs["themis"] = _two_job_run("job-fair", spec1, spec2, scale, seed)
    runs["gift"] = _two_job_run("gift", spec1, spec2, scale, seed,
                                gift_mu=0.5 * max(scale / 0.25, 0.25))
    runs["tbf"] = _two_job_run(
        "tbf", spec1, spec2, scale, seed,
        tbf_rates={1: bandwidth / 2, 2: bandwidth / 2})
    return BaselineComparison(rows=runs)


# =====================================================================
# Figs. 1 and 13 — application interference
# =====================================================================

@dataclass
class InterferenceResult:
    """Per-app time-to-solution under exclusive / FIFO+bg / size-fair+bg."""

    apps: List[str]
    baseline: Dict[str, float]
    fifo: Dict[str, float]
    sizefair: Dict[str, float] = field(default_factory=dict)

    def slowdown(self, app: str, setting: str) -> float:
        """Fractional slowdown of *app* under *setting* vs exclusive."""
        measured = getattr(self, setting)[app]
        return measured / self.baseline[app] - 1.0

    def slowdown_reduction(self, app: str) -> float:
        """How much of the FIFO-induced slowdown size-fair removes."""
        fifo_s = self.slowdown(app, "fifo")
        fair_s = self.slowdown(app, "sizefair")
        if fifo_s <= 0:
            return 0.0
        return max(0.0, (fifo_s - fair_s) / fifo_s)

    def report(self) -> str:
        """The Fig. 1/13 time-to-solution table."""
        body = []
        for app in self.apps:
            row = [app, f"{self.baseline[app]:.2f}s",
                   f"{self.fifo[app]:.2f}s ({pct(self.slowdown(app, 'fifo'))})"]
            if self.sizefair:
                row.append(f"{self.sizefair[app]:.2f}s "
                           f"({pct(self.slowdown(app, 'sizefair'))})")
                row.append(pct(self.slowdown_reduction(app), signed=False))
            body.append(row)
        headers = ["app", "exclusive", "FIFO + bg"]
        if self.sizefair:
            headers += ["size-fair + bg", "slowdown reduced"]
        return table(headers, body, title="Application interference")


def _run_app(profile: AppProfile, policy: str, with_background: bool,
             seed: int, n_servers: int = 1) -> float:
    """One application run; returns its time-to-solution."""
    app_run = JobRun(
        spec=JobSpec(job_id=1, user="app", nodes=profile.nodes),
        workload=ApplicationWorkload(profile),
        start=0.0, client_nodes=min(profile.nodes, 4))
    jobs = [app_run]
    # Generous horizon: apps must finish even badly interfered.
    horizon = (profile.steps * profile.compute_per_step) * 12 + 10.0
    if with_background:
        jobs.append(JobRun(
            spec=JobSpec(job_id=2, user="bg", nodes=1),
            workload=_bg_workload(), start=0.0, stop=horizon - 1.0))
    cfg = ExperimentConfig(
        cluster=ClusterConfig(n_servers=n_servers, policy=policy, seed=seed),
        jobs=jobs, max_time=horizon, sample_interval=0.5)
    result = run_experiment(cfg)
    return result.time_to_solution(1)


def fig01_interference(apps: Optional[Sequence[str]] = None,
                       seed: int = 0) -> InterferenceResult:
    """Fig. 1: each §5.1 application exclusive vs. with a background I/O
    job under the production FIFO discipline, on the paper's two-node
    burst buffer; slowdowns span from a few percent (compute-bound) to
    >100% (I/O-heavy and async-I/O apps)."""
    names = list(apps or APP_PROFILES)
    out = InterferenceResult(apps=names, baseline={}, fifo={})
    for name in names:
        profile = APP_PROFILES[name]
        out.baseline[name] = _run_app(profile, "fifo", False, seed,
                                      n_servers=2)
        out.fifo[name] = _run_app(profile, "fifo", True, seed, n_servers=2)
    return out


def fig13_applications(apps: Optional[Sequence[str]] = None,
                       seed: int = 0,
                       include_sync_resnet: bool = False):
    """Fig. 13: exclusive vs FIFO+bg vs size-fair+bg. Expected shape:
    FIFO slowdowns large for I/O-sensitive apps, size-fair slowdowns
    bounded by the background job's node-count share; size-fair removes
    most of the FIFO-induced slowdown."""
    names = list(apps or APP_PROFILES)
    out = InterferenceResult(apps=names, baseline={}, fifo={}, sizefair={})
    for name in names:
        profile = APP_PROFILES[name]
        n_servers = 2 if name.startswith("resnet") else 1  # §5.5 setup
        out.baseline[name] = _run_app(profile, "fifo", False, seed, n_servers)
        out.fifo[name] = _run_app(profile, "fifo", True, seed, n_servers)
        out.sizefair[name] = _run_app(profile, "size-fair", True, seed,
                                      n_servers)
    if include_sync_resnet:
        sync_profile = RESNET50.sync_variant()
        out.apps.append(sync_profile.name)
        out.baseline[sync_profile.name] = _run_app(sync_profile, "fifo",
                                                   False, seed, 2)
        out.fifo[sync_profile.name] = _run_app(sync_profile, "fifo", True,
                                               seed, 2)
        out.sizefair[sync_profile.name] = _run_app(sync_profile, "size-fair",
                                                   True, seed, 2)
    return out


# =====================================================================
# §6 related work — DataWarp-style provisioning vs ThemisIO sharing
# =====================================================================

@dataclass
class ProvisioningResult:
    """Total and per-job throughput under three provisioning regimes."""

    totals: Dict[str, float]                 # regime -> aggregate B/s
    per_job: Dict[str, Dict[int, float]]     # regime -> job -> B/s
    jain: Dict[str, float]                   # regime -> weighted fairness

    def report(self) -> str:
        """The provisioning-regime comparison table."""
        rows = []
        for regime in self.totals:
            job_cells = ", ".join(
                f"j{j}={v / 1e9:.1f}" for j, v in
                sorted(self.per_job[regime].items()))
            rows.append((regime, fmt_bw(self.totals[regime]),
                         f"{self.jain[regime]:.3f}", job_cells))
        return table(("regime", "total", "weighted Jain", "per-job GB/s"),
                     rows, title="DataWarp provisioning vs ThemisIO (§6)")


def related_datawarp(seed: int = 0, duration: float = 2.0
                     ) -> ProvisioningResult:
    """§6: DataWarp's *interference* policy gives each job a minimal,
    exclusive set of burst-buffer servers (isolated but "resource
    starvation" prone); the *bandwidth* policy spreads jobs over shared
    servers under FIFO (fast but interference-prone). ThemisIO's claim:
    shared servers + size-fair tokens gets both — high utilisation *and*
    per-job fairness.

    Setup: 4 servers, 2 heavy jobs (can each saturate several servers)
    and 2 light jobs (a trickle). Expected shape: isolation wastes the
    light jobs' servers (lowest total); FIFO sharing is fast but skewed
    toward the heavy jobs beyond their entitlement; size-fair keeps the
    total high while holding jobs near their node-count shares.
    """
    n_servers = 4
    heavy = {1: 16, 2: 16}   # job -> streams (demand far above one server)
    light = {3: 2, 4: 2}
    nodes = {1: 8, 2: 8, 3: 1, 4: 1}
    pinned = _pinned_paths(n_servers, max(heavy.values()))

    def run(regime: str) -> ExperimentResult:
        jobs = []
        for idx, (job_id, streams) in enumerate([*heavy.items(),
                                                 *light.items()]):
            if regime == "isolated":
                # DataWarp interference policy: job -> its own server.
                paths = pinned[f"bb{idx}"][:streams]
                workload = PinnedWriter(paths, request_size=4 * MB,
                                        streams_per_node=streams)
            else:
                # Shared servers: per-stream files spread over the ring.
                workload = WriteReadCycle(file_size=10 * MB,
                                          streams_per_node=streams)
            jobs.append(JobRun(
                spec=JobSpec(job_id=job_id, user=f"u{job_id}",
                             nodes=nodes[job_id]),
                workload=workload, start=0.0, stop=duration))
        policy = "size-fair" if regime == "themis" else "fifo"
        return run_sharing_experiment(policy, jobs, n_servers=n_servers,
                                      scale=duration / 60.0, seed=seed,
                                      sample_interval=0.25)

    totals: Dict[str, float] = {}
    per_job: Dict[str, Dict[int, float]] = {}
    jain: Dict[str, float] = {}
    entitlement = {j: nodes[j] for j in nodes}
    for regime in ("isolated", "fifo-shared", "themis"):
        result = run(regime)
        t0 = duration * 0.25
        per_job[regime] = {
            j: result.window_throughput(t0, duration, j) for j in nodes}
        totals[regime] = sum(per_job[regime].values())
        # Weighted fairness: rate per entitled node should be even.
        jain[regime] = jain_index([
            per_job[regime][j] / entitlement[j] for j in nodes])
    return ProvisioningResult(totals=totals, per_job=per_job, jain=jain)


# =====================================================================
# Fig. 14 — λ-delayed fairness
# =====================================================================

@dataclass
class LambdaResult:
    lambdas: List[float]
    convergence: Dict[float, Optional[int]]  # λ -> intervals to fairness
    variance: Dict[float, float]             # λ -> mean share variance

    def report(self) -> str:
        """The Fig. 14 convergence/variance table."""
        body = []
        for lam in self.lambdas:
            conv = self.convergence[lam]
            body.append((f"{lam * 1000:.0f} ms",
                         "never" if conv is None else str(conv),
                         f"{self.variance[lam]:.4f}"))
        return table(("lambda", "intervals to global fairness",
                      "share variance"),
                     body, title="Fig. 14 lambda-delayed fairness")


def fig14_lambda(lambdas: Sequence[float] = (0.010, 0.050, 0.200, 0.500),
                 seed: int = 0, workspace=None, jobs: int = 1
                 ) -> LambdaResult:
    """Fig. 14 (the Fig. 5 scenario measured): three size-fair jobs (16,
    8, 8 nodes) whose files live on disjoint servers; vary λ. Expected:
    global fairness within a couple of intervals for λ >= 50 ms, more
    intervals at 10 ms, and higher share variance at shorter λ.

    Each λ runs as an independent sweep point (see :func:`fig14_cell`);
    ``workspace``/``jobs`` enable caching and parallel fan-out.
    """
    from .sweep import ParallelRunner
    points = [("fig14_cell", {"lam": float(lam), "seed": int(seed)})
              for lam in lambdas]
    run = ParallelRunner(workspace=workspace, jobs=jobs).run_points(points)
    convergence: Dict[float, Optional[int]] = {}
    variance: Dict[float, float] = {}
    for lam, outcome in zip(lambdas, run.points):
        conv = outcome.result["intervals_to_fairness"]
        convergence[lam] = None if conv is None else int(conv)
        variance[lam] = float(outcome.result["share_variance"])
    return LambdaResult(lambdas=list(lambdas), convergence=convergence,
                        variance=variance)


# =====================================================================
# λ-sync cost ladder — what the tree fanout does to the one protocol
# =====================================================================

@dataclass
class SyncLadderResult:
    """``(n_servers, fanout)`` -> :func:`sync_cost_cell` result."""

    rows: Dict[Tuple[int, int], Dict[str, int]]

    def report(self) -> str:
        """Per-epoch wire cost of each (cluster size, fanout) point."""
        body = [(f"{n:,}", fanout,
                 f"{r['root_in_bytes_per_epoch']:,}",
                 f"{r['payload_bytes_per_epoch']:,}",
                 f"{r['nominal_bytes_per_epoch']:,}",
                 f"{r['messages_per_epoch']:,}",
                 f"{r['max_fanin']:,}")
                for (n, fanout), r in self.rows.items()]
        return table(("servers", "fanout", "root-in B/epoch",
                      "total B/epoch", "nominal B/epoch", "msgs/epoch",
                      "peak fan-in"),
                     body, title="lambda-sync cost ladder")


def sync_ladder(server_counts: Sequence[int] = (16, 64, 256, 1024),
                fanouts: Sequence[int] = (0, 8), epochs: int = 6,
                workspace=None, jobs: int = 1) -> SyncLadderResult:
    """The λ-sync cost ladder: root-inbound gather bytes per epoch stay
    linear in N at fanout 0 and become constant under the fanout-8
    tree, at ~4(N-1) messages per epoch either way.

    Each (N, fanout) runs as an independent sweep point (see
    :func:`sync_cost_cell`); ``workspace``/``jobs`` enable caching and
    parallel fan-out.
    """
    from .sweep import ParallelRunner
    keys = [(int(n), int(fanout)) for n in server_counts
            for fanout in fanouts]
    points = [("sync_cost", {"n_servers": n, "fanout": fanout,
                             "epochs": int(epochs)})
              for n, fanout in keys]
    run = ParallelRunner(workspace=workspace, jobs=jobs).run_points(points)
    return SyncLadderResult(rows={key: outcome.result for key, outcome
                                  in zip(keys, run.points)})


# =====================================================================
# Availability under a server outage (§7's open problem, exercised)
# =====================================================================

@dataclass
class AvailabilityResult:
    """What an N-job run looked like through one server crash + restart.

    ``recovery_time`` is restart-to-first-served-request on the crashed
    server (None if nothing completed there after the restart).
    ``jain_*`` are Jain fairness indices of per-job throughput before the
    crash, during the outage, and after the rejoin settles.
    """

    result: ExperimentResult
    crashed_server: str
    crash_at: float
    restart_at: float
    recovery_time: Optional[float]
    jain_before: float
    jain_during: float
    jain_after: float

    @property
    def stats(self):
        """The run's :class:`~repro.metrics.FaultStats` counters."""
        return self.result.cluster.fault_stats

    def report(self) -> str:
        """Availability table: fairness through the outage + recovery."""
        stats = self.stats
        rec = ("n/a" if self.recovery_time is None
               else f"{self.recovery_time * 1000:.1f} ms")
        rows = [
            ("crashed server", self.crashed_server),
            ("outage window", f"[{self.crash_at:.2f}s, {self.restart_at:.2f}s)"),
            ("recovery time", rec),
            ("Jain before crash", f"{self.jain_before:.3f}"),
            ("Jain during outage", f"{self.jain_during:.3f}"),
            ("Jain after rejoin", f"{self.jain_after:.3f}"),
            ("requests retried", str(stats.retries)),
            ("rpc timeouts", str(stats.rpc_timeouts)),
            ("failovers", str(stats.failovers)),
            ("requests failed", str(stats.requests_failed)),
            ("dropped in crash", str(stats.requests_dropped_in_crash)),
            ("duplicate requests", str(stats.duplicate_requests)),
            ("degraded sync rounds", str(stats.degraded_sync_rounds)),
        ]
        return table(("metric", "value"), rows,
                     title="Availability under one server outage")


def availability_outage(n_jobs: int = 3, n_servers: int = 2,
                        duration: float = 6.0, crash_at: float = 2.0,
                        restart_at: float = 3.5, seed: int = 0,
                        crashed_server: str = "bb0",
                        policy: str = "job-fair") -> AvailabilityResult:
    """N jobs write/read through a crash of one of the servers.

    The cluster runs with every durability and fault-tolerance layer on:
    journaled metadata + log-structured storage (acked writes survive the
    crash), fault-tolerant clients (timeout / retry / failover), and
    degraded λ-sync (surviving peers keep exchanging tables while the
    crashed one is away). Expected shape: throughput dips but never
    deadlocks during the outage, the crashed server serves again within
    a few client-timeout periods of its restart, and Jain fairness after
    the rejoin returns to the pre-crash level.
    """
    timeout = 0.25
    cfg = ExperimentConfig(
        cluster=ClusterConfig(
            n_servers=n_servers, policy=policy, seed=seed,
            journal=True, storage_backend="log",
            client=ClientConfig(rpc_timeout=timeout, rpc_retries=-1),
            server=ServerConfig(sync_timeout=0.5)),
        jobs=[JobRun(spec=JobSpec(job_id=i + 1, user=f"u{i + 1}", nodes=1),
                     workload=WriteReadCycle(file_size=4 * MB,
                                             streams_per_node=4),
                     start=0.0, stop=duration) for i in range(n_jobs)],
        max_time=duration + 1.0,
        sample_interval=0.25,
    )
    plan = FaultPlan([ServerCrash(crashed_server, at=crash_at,
                                  restart_at=restart_at)])

    def arm(cluster):
        FaultInjector(cluster, plan).arm()

    result = run_experiment(cfg, on_cluster=arm)
    server = result.cluster.servers[crashed_server]
    recovery = None
    if (server.first_completion_after_restart is not None
            and server.restarted_at is not None):
        recovery = (server.first_completion_after_restart
                    - server.restarted_at)
    job_ids = [run.spec.job_id for run in cfg.jobs]

    def jain(t0: float, t1: float) -> float:
        return jain_index([result.window_throughput(t0, t1, j)
                           for j in job_ids])

    settle = 2 * timeout  # let retries/failbacks drain out of the window
    return AvailabilityResult(
        result=result, crashed_server=crashed_server,
        crash_at=crash_at, restart_at=restart_at,
        recovery_time=recovery,
        jain_before=jain(settle, crash_at),
        jain_during=jain(crash_at + settle, restart_at),
        jain_after=jain(restart_at + settle, duration))


# =====================================================================
# Repair vs. fairness (the erasure tier's scheduling question)
# =====================================================================

#: metric key -> column header of the repair-vs-fairness matrix.
_REPAIR_COLUMNS = (
    ("fg_before", "fg before"),
    ("fg_during", "fg during"),
    ("slowdown", "slowdown"),
    ("repair_completion_s", "repair s"),
    ("repair_bytes", "repair B"),
    ("groups_rebuilt", "rebuilt"),
    ("data_lost_groups", "lost"),
    ("degraded_reads", "deg reads"),
    ("degraded_writes", "deg writes"),
)


@dataclass
class RepairFairnessResult:
    """Per-policy view of one crash-mid-burst repair run.

    ``rows`` maps policy -> metric dict (the :func:`repair_cell` output):
    foreground throughput before vs during the repair window, the
    resulting slowdown factor, repair completion time (detection to the
    last rebuilt share), repair traffic, and the loss/degradation
    counters. ``data_lost_groups`` must be 0 for every policy — a single
    crash is within the ``n - k`` tolerance.
    """

    policies: List[str]
    rows: Dict[str, Dict[str, Optional[float]]]

    def report(self) -> str:
        """The policy x metric matrix, plus the starvation verdict."""
        def fmt(key, value):
            if value is None:
                return "unfinished"
            if key in ("fg_before", "fg_during"):
                return fmt_bw(value)
            if key == "slowdown":
                return f"{value:.2f}x"
            if key == "repair_completion_s":
                return f"{value:.3f}s"
            return str(int(value))

        body = [tuple([policy] + [fmt(key, self.rows[policy].get(key))
                                  for key, _ in _REPAIR_COLUMNS])
                for policy in self.policies]
        out = table(("policy",) + tuple(h for _, h in _REPAIR_COLUMNS),
                    body, title="Repair vs. foreground fairness "
                    "(one crash mid-burst)")
        verdict = self.size_fair_verdict()
        if verdict:
            out += "\n" + verdict
        return out

    def size_fair_verdict(self) -> str:
        """Does size-fair starve repair? Compare its repair completion
        against the fastest policy's (repair runs as a size-1 job, so
        size-fair hands it the smallest share of the burst)."""
        done = {p: r["repair_completion_s"] for p, r in self.rows.items()
                if r.get("repair_completion_s") is not None}
        if "size-fair" not in self.rows or not done:
            return ""
        if "size-fair" not in done:
            return ("size-fair verdict: repair did not finish within the "
                    "run — size-fair starves the size-1 repair job.")
        best = min(done.values())
        mine = done["size-fair"]
        ratio = mine / best if best > 0 else 1.0
        if ratio > 2.0:
            return (f"size-fair verdict: repair takes {ratio:.1f}x the "
                    f"fastest policy's time — size-fair deprioritises "
                    f"(but does not strictly starve) the size-1 repair job.")
        return (f"size-fair verdict: no starvation — repair finishes in "
                f"{mine:.3f}s, {ratio:.2f}x the fastest policy.")


def repair_cell(config: Dict) -> Dict:
    """One policy's crash-mid-burst repair run as a sweep cell.

    Config keys: ``policy``, optional ``seed`` (0), ``n_jobs`` (3),
    ``nodes`` (2), ``n_servers`` (7), ``k`` (3), ``n_shares`` (5),
    ``duration`` (6.0), ``crash_at`` (2.0), ``crashed`` ("bb0").

    The cluster runs the erasure tier with repair on; one data-share
    server crashes mid-burst and never restarts, so foreground I/O runs
    degraded (reconstructing reads, parity-overlay writes) while the
    repair job rebuilds the lost shares under the policy's arbitration.
    """
    policy = str(config.get("policy", "job-fair"))
    seed = int(config.get("seed", 0))
    n_jobs = int(config.get("n_jobs", 3))
    nodes = int(config.get("nodes", 2))
    duration = float(config.get("duration", 6.0))
    crash_at = float(config.get("crash_at", 2.0))
    crashed = str(config.get("crashed", "bb0"))
    timeout = 0.25
    cfg = ExperimentConfig(
        cluster=ClusterConfig(
            n_servers=int(config.get("n_servers", 7)), policy=policy,
            seed=seed,
            erasure=(int(config.get("k", 3)),
                     int(config.get("n_shares", 5))),
            repair=True, repair_detect_interval=0.25,
            client=ClientConfig(rpc_timeout=timeout, rpc_retries=-1),
            server=ServerConfig(sync_timeout=0.5)),
        jobs=[JobRun(spec=JobSpec(job_id=i + 1, user=f"u{i + 1}",
                                  nodes=nodes),
                     workload=WriteReadCycle(file_size=4 * MB,
                                             streams_per_node=4),
                     start=0.0, stop=duration) for i in range(n_jobs)],
        max_time=duration + 1.0,
        sample_interval=0.25,
    )
    plan = FaultPlan([ServerCrash(crashed, at=crash_at)])

    def arm(cluster):
        FaultInjector(cluster, plan).arm()

    result = run_experiment(cfg, on_cluster=arm)
    cluster = result.cluster
    stats = cluster.fault_stats
    repair = cluster.repair.summary()
    finished = [e["finished_at"] for e in cluster.repair.episodes]
    completion = (max(finished) - crash_at) if finished else None
    job_ids = [run.spec.job_id for run in cfg.jobs]
    settle = 2 * timeout

    def fg(t0: float, t1: float) -> float:
        return sum(result.window_throughput(t0, t1, j) for j in job_ids)

    before = fg(settle, crash_at)
    during = fg(crash_at + settle, duration)
    return {
        "fg_before": float(before),
        "fg_during": float(during),
        "slowdown": float(before / during) if during > 0 else None,
        "repair_completion_s": (None if completion is None
                                else float(completion)),
        "repair_bytes": int(repair["repair_bytes"]),
        "groups_repaired": int(repair["groups_repaired"]),
        "groups_clean": int(repair["groups_clean"]),
        "groups_rebuilt": int(repair["groups_repaired"]
                              + repair["groups_clean"]),
        "groups_lost": int(repair["groups_lost"]),
        "io_failures": int(repair["io_failures"]),
        "data_lost_groups": int(stats.data_lost_groups),
        "degraded_reads": int(stats.degraded_reads),
        "degraded_writes": int(stats.degraded_writes),
        "shares_reconstructed": int(stats.shares_reconstructed),
    }


#: the policies the repair study compares (§5.4's ladder + FIFO floor).
REPAIR_POLICIES = ("fifo", "job-fair", "size-fair", "gift", "tbf")


def repair_fairness(policies: Sequence[str] = REPAIR_POLICIES,
                    seed: int = 0, duration: float = 6.0,
                    crash_at: float = 2.0, workspace=None, jobs: int = 1
                    ) -> RepairFairnessResult:
    """The repair-vs-fairness study: one crash mid-burst per policy.

    Each policy runs as an independent sweep point (see
    :func:`repair_cell`); ``workspace``/``jobs`` enable content-addressed
    caching and parallel fan-out, exactly like :func:`fig14_lambda`.
    Expected shape: every policy finishes repair with zero lost groups
    (one crash is within ``n - k``); repair completion time varies with
    how much bandwidth the policy hands the size-1 repair job while the
    foreground burst runs degraded.
    """
    from .sweep import ParallelRunner
    points = [("repair_cell", {"policy": str(p), "seed": int(seed),
                               "duration": float(duration),
                               "crash_at": float(crash_at)})
              for p in policies]
    run = ParallelRunner(workspace=workspace, jobs=jobs).run_points(points)
    rows = {policy: outcome.result
            for policy, outcome in zip(policies, run.points)}
    return RepairFairnessResult(policies=list(policies), rows=rows)
