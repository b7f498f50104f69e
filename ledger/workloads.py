"""The five ledger workloads.

Each builder returns a :class:`Scenario`: a fully set-up cluster whose
client processes are already scheduled, so that the caller times
``Engine.run`` alone. Every load generator is closed-loop (a stream
issues its next request when the previous reply lands) and draws all of
its randomness from ``ClusterConfig.seed`` through the cluster's named
rng streams. ``smoke`` shrinks a workload to a tenth of its simulated
duration and a quarter of its servers / jobs; it exercises the plumbing
and measures nothing.

The shapes are fixed: later issues cite these workloads by name, so a
change here invalidates every recorded number (see README.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.bb.client import ClientConfig
from repro.bb.cluster import Cluster, ClusterConfig
from repro.bb.server import ServerConfig
from repro.core.jobinfo import JobInfo
from repro.errors import FileNotFound, RpcTimeout
from repro.faults import FaultInjector, FaultPlan, ServerCrash
from repro.fs.hashing import ConsistentHashRing
from repro.units import GB, KiB, MB
from repro.workloads.base import Workload
from repro.workloads.custom import PinnedWriter, WriteReadCycle
from repro.workloads.ior import IORWorkload

__all__ = ["Scenario", "WORKLOADS", "build"]

BASE_DIR = "/fs"


@dataclass
class Scenario:
    """One set-up workload, ready for ``cluster.engine.run(until=horizon)``."""

    cluster: Cluster
    horizon: float
    #: jobs whose delivered bytes the sim_* metrics judge.
    io_jobs: List[JobInfo]
    #: counts the workload's "op" (see README.md) after the run.
    count_ops: Callable[["Scenario"], int]
    #: intervals the steady window is cut into for ``sim_tput_cv``.
    cv_bins: int = 15
    #: finite jobs still running; must be 0 at the horizon (job_churn).
    unfinished: int = 0
    #: ``Server.errors`` may be non-empty (outage only).
    errors_allowed: bool = False
    #: operations a client abandoned (retry budget exhausted).
    abandoned: List[str] = field(default_factory=list)
    #: extra output checks; each returns a list of problems.
    checks: List[Callable[[], List[str]]] = field(default_factory=list)


def _data_ops(sc: Scenario) -> int:
    sampler = sc.cluster.sampler
    return sampler.op_count(op="write") + sampler.op_count(op="read")


def _served_requests(sc: Scenario) -> int:
    return sum(s.served_requests for s in sc.cluster.servers.values())


def _sync_epochs(sc: Scenario) -> int:
    return sc.cluster.sync_stats()["sync_rounds"]


def _guard(sc: Scenario, label: str, stream):
    """Run *stream*; an abandoned request ends it and is counted."""
    try:
        yield from stream
    except (RpcTimeout, FileNotFound) as exc:
        sc.abandoned.append(f"{label}: {exc}")


def _launch(sc: Scenario, info: JobInfo, workload: Workload, n_clients: int,
            stop: float, first_stream: Optional[Callable] = None) -> None:
    """Start one open-ended job at t=0: *n_clients* clients, each running
    the workload's streams until *stop* (the harness runner's job body,
    minus the parts that own ``Engine.run``). *first_stream* replaces
    ``workload.run_stream`` for stream 0 of each client."""
    cluster = sc.cluster
    engine = cluster.engine
    prefix = f"{BASE_DIR}/job{info.job_id}"
    cluster.fs.makedirs(prefix)
    for c_idx in range(n_clients):
        client = cluster.add_client(info, client_id=f"j{info.job_id}n{c_idx}")
        for s_idx in range(workload.streams_per_node):
            rng = cluster.rng.stream(f"wl.j{info.job_id}.c{c_idx}.s{s_idx}")
            run = (first_stream if first_stream and s_idx == 0
                   else workload.run_stream)
            body = run(engine, client, rng, prefix, s_idx, stop)
            engine.process(_guard(sc, f"job{info.job_id}", body))


# --------------------------------------------------------------- fig07_*
def _fig07(mode: str, seed: int, smoke: bool) -> Scenario:
    n = 32 if smoke else 128
    duration = 0.009 if smoke else 0.09
    cluster = Cluster(ClusterConfig(n_servers=n, policy="job-fair",
                                    seed=seed))
    cluster.fs.makedirs(BASE_DIR)
    jobs = [JobInfo(job_id=i + 1, user=f"u{i}", size=1) for i in range(n)]
    sc = Scenario(cluster=cluster, horizon=duration, io_jobs=jobs,
                  count_ops=_data_ops)
    for info in jobs:
        _launch(sc, info, IORWorkload(file_size=64 * MB, block_size=8 * MB,
                                      mode=mode, streams_per_node=8),
                n_clients=1, stop=duration)
    return sc


# ------------------------------------------------------------- job_churn
_CHURN_FILES = 8
_CHURN_REQ = 64 * KiB
_CHURN_SLOT = 512 * KiB          # 4 slots span both stripe servers
_CHURN_STREAMS = 4               # x (3 writes + 1 read) = 12 + 4 data ops
_CHURN_GAP = 0.0005


def job_churn(seed: int, smoke: bool) -> Scenario:
    n_jobs = 96 if smoke else 384
    cluster = Cluster(ClusterConfig(
        n_servers=2, stripe_count=2, policy="group-user-size-fair",
        seed=seed,
        # Slow servers (as in sync_scale), so that arrivals outrun
        # service and over a hundred jobs are backlogged at once.
        server=ServerConfig(bandwidth=1 * GB, sync_interval=0.050)))
    engine = cluster.engine
    cluster.fs.makedirs(f"{BASE_DIR}/shared")
    files = [f"{BASE_DIR}/shared/f{i}" for i in range(_CHURN_FILES)]
    # 16 users in 3 groups, sizes 1-8: fixed, so that the seed moves the
    # token draws and the file/offset choices but not the policy tree.
    jobs = [JobInfo(job_id=j + 1, user=f"u{j % 16}", group=f"g{j % 16 % 3}",
                    size=1 + (j * 5) % 8)
            for j in range(n_jobs)]
    sc = Scenario(cluster=cluster, horizon=n_jobs * _CHURN_GAP + 5.0,
                  io_jobs=jobs, count_ops=_served_requests,
                  unfinished=n_jobs)

    def stream(client, path, base):
        for i in range(3):
            offset = ((base + i) % 4) * _CHURN_SLOT
            yield from client.write(path, offset, _CHURN_REQ)
        yield from client.read(path, (base % 4) * _CHURN_SLOT, _CHURN_REQ)

    def job(info: JobInfo):
        yield engine.timeout((info.job_id - 1) * _CHURN_GAP)
        rng = cluster.rng.stream(f"wl.j{info.job_id}")
        client = cluster.add_client(info, client_id=f"j{info.job_id}")
        yield from client.register_all()
        path = files[int(rng.integers(_CHURN_FILES))]
        base = int(rng.integers(4))
        yield from client.create(path)
        # All four streams walk the same offsets, so their writes meet
        # on the range locks.
        yield engine.all_of([engine.process(stream(client, path, base))
                             for _ in range(_CHURN_STREAMS)])
        yield from client.goodbye()
        sc.unfinished -= 1
        if sc.unfinished == 0:
            engine.request_stop()

    for info in jobs:
        engine.process(_guard(sc, f"job{info.job_id}", job(info)))
    return sc


# ------------------------------------------------------------ sync_scale
def _pinned(n_servers: int, targets: List[str], per_server: int
            ) -> Dict[str, List[str]]:
    """Paths whose consistent-hash owner is each of *targets*."""
    ring = ConsistentHashRing([f"bb{i}" for i in range(n_servers)])
    found: Dict[str, List[str]] = {name: [] for name in targets}
    i = 0
    while any(len(paths) < per_server for paths in found.values()):
        path = f"{BASE_DIR}/pin/file-{i}"
        paths = found.get(ring.lookup(path))
        if paths is not None and len(paths) < per_server:
            paths.append(path)
        i += 1
    return found


def sync_scale(seed: int, smoke: bool) -> Scenario:
    n = 32 if smoke else 128
    duration = 0.02 if smoke else 0.2
    lam = 0.010
    cluster = Cluster(ClusterConfig(
        n_servers=n, policy="size-fair", seed=seed,
        server=ServerConfig(bandwidth=1 * GB, sync_interval=lam,
                            sync_tree_fanout=8, sync_processing_time=0.001),
        client=ClientConfig(heartbeat_interval=2 * lam)))
    engine = cluster.engine
    cluster.fs.makedirs(BASE_DIR)
    names = [f"bb{i}" for i in range(n)]
    pins = _pinned(n, names, per_server=3)
    # Fig. 14's pattern on 8 servers: job 1 (16 nodes) writes to all of
    # them, jobs 2 and 3 (8 nodes each) to alternate halves, so every
    # server starts locally fair (2:1) and globally unfair. 16 streams
    # per server against 8 workers, so the scheduler has a queue to judge.
    hot = names[:8]
    writers = [
        (JobInfo(job_id=1, user="u1", size=16), 8, [pins[s][0] for s in hot]),
        (JobInfo(job_id=2, user="u2", size=8), 4,
         [pins[s][1] for s in hot[0::2]]),
        (JobInfo(job_id=3, user="u3", size=8), 4,
         [pins[s][1] for s in hot[1::2]]),
    ]
    sc = Scenario(cluster=cluster, horizon=duration,
                  io_jobs=[info for info, _, _ in writers],
                  # 16 ms requests: wider bins, or the series aliases.
                  count_ops=_sync_epochs, cv_bins=5)
    for info, n_clients, paths in writers:
        _launch(sc, info, PinnedWriter(paths, request_size=2 * MB,
                                       streams_per_node=8),
                n_clients=n_clients, stop=duration)
    # One idle job per server: it opens a file there and then only
    # heartbeats, so every server has a table entry of its own to
    # gather, every round has fresher timestamps to merge, and the
    # placement projection is 128 servers x 131 jobs.
    cluster.fs.makedirs(f"{BASE_DIR}/pin")
    for k, name in enumerate(names):
        info = JobInfo(job_id=100 + k, user=f"idle{k}", size=1)
        client = cluster.add_client(info, client_id=f"idle{k}")
        engine.process(_guard(sc, f"idle{k}", client.create(pins[name][2])))
    return sc


# ---------------------------------------------------------------- outage
_PAYLOAD = 256 * KiB
_PAYLOAD_SLOTS = 16
_CYCLE_FILE = 4 * MB


class _PayloadLedger:
    """What the payload writers were told is durable, slot by slot."""

    def __init__(self, sc: Scenario):
        self.sc = sc
        self.acked: Dict[Tuple[str, int], bytes] = {}
        self.in_flight: Dict[str, Tuple[int, bytes]] = {}
        self.verified = 0
        self.problems: List[str] = []

    def stream(self, engine, client, rng, prefix, stream_idx, stop_time):
        """A write/read cycle stream whose every cycle first writes one
        real 256 KiB payload into a ring of slots."""
        path = f"{prefix}/payload-{client.client_id}"
        cycle = f"{prefix}/cycle-{client.client_id}-{stream_idx}"
        yield from client.create(path)
        yield from client.create(cycle)
        k = 0
        while engine.now < stop_time:
            slot = k % _PAYLOAD_SLOTS
            data = rng.bytes(_PAYLOAD)
            self.in_flight[path] = (slot, data)
            yield from client.write(path, slot * _PAYLOAD, _PAYLOAD,
                                    payload=data)
            self.acked[(path, slot)] = data
            del self.in_flight[path]
            k += 1
            yield from client.write_read_cycle(cycle, _CYCLE_FILE)

    def verify(self) -> None:
        """Every acknowledged slot reads back as written (the slot with
        an unacknowledged write in flight may hold either version)."""
        fs = self.sc.cluster.fs
        for (path, slot), data in self.acked.items():
            got = fs.read(path, slot * _PAYLOAD, _PAYLOAD)
            pending = self.in_flight.get(path)
            if got != data and not (pending and pending[0] == slot
                                    and got == pending[1]):
                self.problems.append(
                    f"payload mismatch: {path} slot {slot} "
                    f"at t={self.sc.cluster.engine.now:.3f}")
        self.verified += len(self.acked)

    def check(self) -> List[str]:
        """The end-of-run output check."""
        self.verify()
        if not self.verified:
            self.problems.append("no payload write was acknowledged")
        return self.problems


def outage(seed: int, smoke: bool) -> Scenario:
    n_servers, n_jobs = (2, 2) if smoke else (4, 6)
    scale = 0.1 if smoke else 1.0
    crash_at, restart_at, duration = 0.4 * scale, 0.9 * scale, 1.5 * scale
    cluster = Cluster(ClusterConfig(
        n_servers=n_servers, policy="job-fair", seed=seed,
        journal=True, storage_backend="log",
        # One payload write is one chunk record, and the log is small
        # enough that its garbage collector runs.
        stripe_size=_PAYLOAD, capacity_per_server=64 * 1024 * KiB,
        client=ClientConfig(rpc_timeout=0.25 * scale, rpc_retries=12,
                            retry_backoff=0.05 * scale,
                            retry_backoff_max=0.25 * scale),
        server=ServerConfig(sync_timeout=0.5 * scale)))
    cluster.fs.makedirs(BASE_DIR)
    FaultInjector(cluster, FaultPlan(
        [ServerCrash("bb0", at=crash_at, restart_at=restart_at)])).arm()
    jobs = [JobInfo(job_id=i + 1, user=f"u{i + 1}", size=1)
            for i in range(n_jobs)]
    sc = Scenario(cluster=cluster, horizon=duration, io_jobs=jobs,
                  count_ops=_served_requests, errors_allowed=True)
    ledger = _PayloadLedger(sc)
    # Read everything back just after the restart (what was acknowledged
    # before the crash must have survived it) and again at the end.
    cluster.engine.call_at(restart_at + 1e-6, ledger.verify)
    sc.checks.append(ledger.check)
    cycle = WriteReadCycle(file_size=_CYCLE_FILE, streams_per_node=4)
    for info in jobs:
        # Stream 0 of each job moves real bytes; the others stay
        # size-only, as every paper-shaped workload is.
        _launch(sc, info, cycle, n_clients=1, stop=duration,
                first_stream=ledger.stream)
    return sc


WORKLOADS: Dict[str, Callable[[int, bool], Scenario]] = {
    "fig07_write": partial(_fig07, "write"),
    "fig07_read": partial(_fig07, "read"),
    "job_churn": job_churn,
    "sync_scale": sync_scale,
    "outage": outage,
}


def build(name: str, seed: int, smoke: bool = False) -> Scenario:
    """Set up workload *name*; raises KeyError on an unknown name."""
    return WORKLOADS[name](seed, smoke)
