"""Benchmark-regression kernels and the ``repro bench`` runner.

Executes the hot-path micro kernels plus representative system runs and
emits ``BENCH_<rev>.json`` with per-kernel throughput (ops/sec),
simulation event rates (events/sec), and wall-clock seconds.
``scripts/bench_compare.py`` diffs two of these files and fails on
regression — CI runs this in ``--quick`` mode as a smoke job.

Usage::

    PYTHONPATH=src python -m repro bench [--quick] [--out PATH]

(``benchmarks/baseline.py`` is a compatibility shim over this module.)

Kernel inventory
----------------
- ``scheduler_enqueue_dequeue`` — token-scheduler arbitration cycle.
- ``token_draw`` — cumulative-boundary search over a 64-job assignment.
- ``policy_shares_composite`` — Eq. 1 chain evaluation, three-tier
  policy.
- ``engine_timeout_churn`` — raw DES event loop throughput.
- ``lambda_sync_round`` — cluster-wide λ-sync epochs on 8 servers with
  live client heartbeats (gather→merge→scatter at the default fanout).
- ``gift_epoch`` — GIFT allocation boundaries through a steady
  donate/redeem cycle (exercises the coupon LP).
- ``fs_write_path`` — metadata + striping + extent-allocator fast path:
  create/write/stat/truncate/unlink over striped files.
- ``system_contended_write`` / ``system_disjoint_write`` — 3-job
  end-to-end runs on one server, with and without lock conflicts.
- ``erasure_encode_decode`` — GF(256) Reed–Solomon encode + worst-case
  ``n - k``-loss decode over a batch of stripe groups.
- ``repair_storm`` — end-to-end erasure repair: payload writes, one
  server crash, detection, scheduled share rebuilds, restripe.

Scale-regime kernels (ISSUE 5) probe the paths whose cost used to grow
with total population instead of with what changed:

- ``lambda_sync_delta_n16`` — 16-server λ-sync epochs over a populated
  but churn-light table; reports delta-encoded payload bytes against
  the nominal full-table wire bytes.
- ``contended_lock_fanout`` — one release against hundreds of parked
  range waiters (the range-indexed wake-up).

Event-queue kernels (ISSUE 10) probe the cancellation/compaction
machinery under timer-heavy churn:

- ``engine_timer_churn`` — batch-cancel storms: waves of doomed
  timeouts cancelled en masse, retired by threshold compaction.
- ``rpc_timeout_churn`` — 10^5 outstanding timed RPCs through the real
  UCX stack; the reported rate is the churn phase (carrying and
  retiring the expiry-timer garbage after every reply has landed).
- ``heartbeat_storm_n4096`` — 4096 fault-tolerant clients beating two
  servers, half disconnecting mid-run.

``--scale-sweep`` runs the two λ-sync ladders (delta payload bytes and
flat-vs-tree fan-in) across cluster sizes; both report sim-deterministic
wire metrics, not host timings.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from typing import Callable, Dict, Optional

import numpy as np

from .bb import ClientConfig, Cluster, ClusterConfig, ServerConfig
from .core import (JobInfo, Policy, StatisticalTokenScheduler,
                   TokenAssignment)
from .core.baselines import GiftScheduler
from .fs import erasure as _ecmod
from .fs.filesystem import ThemisFS
from .fs.locking import RangeLockTable
from .harness.workspace import code_rev as git_rev
from .net import Fabric
from .sim.engine import Engine
from .sim.rng import RngRegistry
from .ucx import RpcClient, RpcServer, UCPContext
from .units import GB, KiB, MB, MiB

__all__ = ["run_all", "run_and_write", "run_scale_sweep",
           "run_and_write_sweep", "git_rev", "main",
           "bench_lambda_delta_cell", "bench_sync_cell",
           "bench_sync_ladder"]


class _Req:
    __slots__ = ("job_id", "cost")

    def __init__(self, job_id: int, cost: float = 1.0):
        self.job_id = job_id
        self.cost = cost


def _jobs(n: int, users: int = 4, groups: int = 2):
    return [JobInfo(job_id=i, user=f"u{i % users}", group=f"g{i % groups}",
                    size=(i % 8) + 1) for i in range(n)]


def _time_kernel(fn: Callable[[], int], rounds: int) -> Dict[str, float]:
    """Run *fn* (returns ops done) *rounds* times; report best-round rate."""
    best = float("inf")
    total_wall = 0.0
    ops = 0
    for _ in range(rounds):
        t0 = time.perf_counter()
        ops = fn()
        dt = time.perf_counter() - t0
        total_wall += dt  # lint: disable=PERF102 -- host wall-clock bookkeeping
        if dt < best:
            best = dt
    return {
        "wall_s": round(best, 6),
        "wall_mean_s": round(total_wall / rounds, 6),
        "ops": ops,
        "ops_per_s": round(ops / best, 1),
    }


# ---------------------------------------------------------------- kernels
def bench_scheduler_enqueue_dequeue() -> int:
    """The arbitration hot path: 16 jobs, 64-request enqueue/dequeue cycles."""
    policy = Policy.parse("job-fair")
    rng = RngRegistry(0).stream("bench.scheduler_enqueue_dequeue")
    scheduler = StatisticalTokenScheduler(policy, rng)
    scheduler.on_jobs_changed(_jobs(16), 0.0)
    requests = [_Req(i % 16) for i in range(64)]
    cycles = 200
    for _ in range(cycles):
        for request in requests:
            scheduler.enqueue(request, 0.0)
        for _ in range(len(requests)):
            scheduler.dequeue(0.0)
    return cycles * 2 * len(requests)


def bench_token_draw() -> int:
    """Cumulative-boundary search over a 64-job assignment."""
    assignment = TokenAssignment({i: float(i + 1) for i in range(64)})
    us = RngRegistry(0).stream("bench.token_draw").random(5000).tolist()
    reps = 10
    draw = assignment.draw
    for _ in range(reps):
        for u in us:
            draw(u)
    return reps * len(us)


def bench_policy_shares_composite() -> int:
    """Eq. 1 chain evaluation for a three-tier policy over 64 jobs."""
    policy = Policy.parse("group-user-size-fair")
    population = _jobs(64)
    reps = 300
    for _ in range(reps):
        policy.shares(population)
    return reps


def bench_engine_timeout_churn() -> int:
    """Raw DES kernel throughput: schedule/fire a storm of timeouts."""
    engine = Engine()
    n_procs, n_ticks = 50, 400

    def ticker():
        for _ in range(n_ticks):
            yield engine.timeout(0.001)

    for _ in range(n_procs):
        engine.process(ticker())
    engine.run()
    return n_procs * n_ticks


def bench_lambda_sync_round() -> int:
    """Cluster-wide λ-sync epochs on 8 servers (protocol cost only).

    One op is one sync epoch (every server's table exchange for one λ
    window). No clients are attached, so every simulated event is sync
    traffic: the rotating root's gather→merge→scatter at the default
    fanout (the flat round, 2·(N−1) message pairs per epoch; the
    paper's all-gather would cost N·(N−1)).
    """
    epochs = 60
    cluster = Cluster(ClusterConfig(
        n_servers=8, policy="job-fair",
        server=ServerConfig(bandwidth=1 * GB, n_workers=1)))
    interval = cluster.config.server.sync_interval
    cluster.run(until=(epochs + 0.5) * interval)
    return epochs


def bench_gift_epoch() -> int:
    """GIFT allocation boundaries through a steady donate/redeem cycle.

    Each cycle job 1 first under-demands (banking coupons) then
    over-demands (redeeming them through the LP), so every boundary
    exercises the coupon-redemption solve — the path the warm-start
    memo accelerates once the cycle repeats.
    """
    sched = GiftScheduler(capacity=100.0, mu=1.0)
    sched.on_jobs_changed([JobInfo(job_id=1, user="u0"),
                           JobInfo(job_id=2, user="u1")], 0.0)
    epochs = 120
    now = 0.0
    for _ in range(epochs // 2):
        # Donor phase: job 1 leaves most of its share unused.
        sched.enqueue(_Req(1, 5.0), now)
        for _ in range(95):
            sched.enqueue(_Req(2, 1.0), now)
        while sched.dequeue(now) is not None:
            pass
        now += 1.0  # lint: disable=PERF102 -- sim-clock step, not a float sum
        # Redeem phase: job 1 over-demands while holding coupons.
        for _ in range(120):
            sched.enqueue(_Req(1, 1.0), now)
        while sched.dequeue(now) is not None:
            pass
        now += 1.0  # lint: disable=PERF102 -- sim-clock step, not a float sum
    return epochs


def bench_fs_write_path() -> int:
    """Metadata + striping + allocator fast path on a 4-server FS."""
    fs = ThemisFS([f"s{i}" for i in range(4)], capacity_per_server=256 * MiB,
                  stripe_size=MiB, default_stripe_count=4)
    fs.makedirs("/fs/data")
    files = [f"/fs/data/f{i}" for i in range(8)]
    buf = b"x" * (64 * KiB)
    ops = 0
    for path in files:
        fs.create(path)
        ops += 1
    for rep in range(48):
        for path in files:
            offset = ((rep * 7) % 64) * len(buf)
            fs.write(path, offset, buf)
            fs.stat(path)
            fs.data_servers(path, offset, len(buf))
            ops += 3
        if rep % 16 == 15:
            # Free every chunk (extent free + coalesce), then regrow.
            for path in files:
                fs.truncate(path, 0)
                ops += 1
    for path in files:
        fs.unlink(path)
        ops += 1
    return ops


def bench_erasure_encode_decode(groups: int = 24, k: int = 4, n: int = 6,
                                share_size: int = 8 * KiB) -> int:
    """GF(256) Reed–Solomon hot path: encode ``k``-of-``n`` groups,
    then decode each one back from a rotating loss of ``n - k`` shares
    (the erasure tier's degraded-read worst case)."""
    blob = bytes(range(256)) * ((share_size * (groups + k)) // 256 + 1)
    ops = 0
    for g in range(groups):
        data = [blob[(g + s) * share_size:(g + s + 1) * share_size]
                for s in range(k)]
        shares = data + _ecmod.encode(k, n, data)
        dead = {(g + j) % n for j in range(n - k)}
        held = {i: shares[i] for i in range(n) if i not in dead}
        if _ecmod.decode(k, n, held) != data:
            raise RuntimeError("erasure roundtrip mismatch")
        ops += n + len(dead)
    return ops


def bench_repair_storm(n_files: int = 6, writes_per_file: int = 4) -> int:
    """End-to-end crash → detect → rebuild → restripe cycle.

    An erasure cluster payload-writes a batch of files, one share
    server fail-stops, and the kernel runs until the repair episode has
    rebuilt every lost share and restriped the files; returns groups
    rebuilt. Exercises detection polling, the repair client's scheduled
    share traffic, and the fs reconstruction path together.
    """
    cluster = Cluster(ClusterConfig(
        n_servers=6, policy="job-fair", erasure=(3, 5), repair=True,
        repair_detect_interval=0.1, stripe_size=256 * KiB,
        server=ServerConfig(bandwidth=1 * GB, n_workers=4)))
    cluster.fs.makedirs("/fs/data")
    engine = cluster.engine
    client = cluster.add_client(JobInfo(job_id=1, user="u0", size=1))
    payload = bytes(range(256)) * (MiB // 256)
    done: Dict[str, bool] = {}

    def driver():
        for i in range(n_files):
            path = f"/fs/data/f{i}"
            yield from client.create(path)
            for w in range(writes_per_file):
                yield from client.write(path, w * MiB, MiB,
                                        payload=payload)
        dead = cluster.fs.lookup("/fs/data/f0").stripe.servers[0]
        cluster.crash_server(dead)
        while not cluster.repair.episodes:
            yield engine.timeout(0.05)
        done["ok"] = True
        engine.request_stop()

    engine.process(driver())
    cluster.run(until=3600.0)
    summary = cluster.repair.summary()
    if not done or summary["groups_lost"]:
        raise RuntimeError(f"repair storm failed: {summary}")
    return summary["groups_repaired"] + summary["groups_clean"]


def bench_lambda_sync_delta(n_servers: int = 16,
                            epochs: int = 24) -> Dict[str, float]:
    """λ-sync epochs over a populated, churn-light table.

    Every server starts knowing the same 48 jobs; after the first
    scatter converges the cluster, each epoch's merged table is almost
    unchanged, so delta pushes shrink to near-empty while the nominal
    (timing-bearing) wire size still covers the full table. Reports the
    epoch rate plus nominal vs effective payload bytes.
    """
    cluster = Cluster(ClusterConfig(
        n_servers=n_servers, policy="job-fair",
        server=ServerConfig(bandwidth=1 * GB, n_workers=1)))
    for server in cluster.servers.values():
        for info in _jobs(48):
            server.monitor.table.observe(info, 0.0)
    interval = cluster.config.server.sync_interval
    t0 = time.perf_counter()
    cluster.run(until=(epochs + 0.5) * interval)
    wall = time.perf_counter() - t0
    fabric = cluster.fabric
    saved = fabric.bytes_sent - fabric.payload_bytes_sent
    return {
        "wall_s": round(wall, 6),
        "ops": epochs,
        "ops_per_s": round(epochs / wall, 1),
        "nominal_bytes": fabric.bytes_sent,
        "payload_bytes": fabric.payload_bytes_sent,
        "delta_saved_bytes": saved,
        "delta_saved_frac": round(saved / fabric.bytes_sent, 4)
        if fabric.bytes_sent else 0.0,
    }


def bench_sync_ladder(n_servers: int = 16, mode: str = "flat",
                      fanout: int = 8, epochs: int = 6,
                      quiescence: bool = False) -> Dict:
    """λ-sync cost of one cluster size under the flat vs tree layout.

    Every server starts knowing the same 48 jobs (converged, churn-free
    tables), so the measured traffic is the protocol's steady-state
    floor. The reported numbers are sim-deterministic wire/fan-in
    metrics, not host timings: ``root_in_bytes_per_epoch`` is the
    gather payload absorbed by each epoch's driving node (the fan-in
    hotspot — linear in N for the flat round, bounded by ``fanout``
    times the table size for the tree), ``max_fanin`` the peak number
    of gather replies any node awaited at once.
    """
    tree = mode == "tree"
    cluster = Cluster(ClusterConfig(
        n_servers=n_servers, policy="job-fair",
        server=ServerConfig(bandwidth=1 * GB, n_workers=1,
                            client_pool_workers=1,
                            sync_tree_fanout=fanout if tree else 0,
                            sync_quiescence_skip=quiescence)))
    for server in cluster.servers.values():
        for info in _jobs(48):
            server.monitor.table.observe(info, 0.0)
    interval = cluster.config.server.sync_interval
    cluster.run(until=(epochs + 0.5) * interval)
    stats = cluster.sync_stats()
    driven = max(1, stats["coordinated_rounds"])
    fabric = cluster.fabric
    return {
        "n_servers": n_servers,
        "mode": mode,
        "fanout": fanout if tree else 0,
        "epochs": stats["coordinated_rounds"],
        "root_in_bytes_per_epoch":
            round(stats["coord_gather_payload_bytes"] / driven),
        "payload_bytes_per_epoch":
            round(fabric.payload_bytes_sent / driven),
        "messages_per_epoch": round(fabric.messages_sent / driven),
        "max_fanin": stats["max_gather_fanin"],
        "quiescent_skips": stats["quiescent_skips"],
    }


def bench_contended_lock_fanout(n_waiters: int = 512,
                                rounds: int = 4000) -> int:
    """One write-lock release against *n_waiters* parked range waiters.

    Waiters park on disjoint byte ranges of one inode; a holder cycles
    lock/release over one waiter's range per round. A range-indexed
    release wakes exactly the one conflicting waiter. Woken waiters
    re-register, as the server worker loop does.
    """
    woken_log = []

    class _Waiter:
        __slots__ = ("key",)

        def __init__(self, key):
            self.key = key

        def succeed(self):
            woken_log.append(self.key)

    table = RangeLockTable()
    for i in range(n_waiters):
        table.wait(1, _Waiter(i), i * 2048, 1024, owner=i)
    holder = object()
    for r in range(rounds):
        i = r % n_waiters
        table.try_lock_write(1, i * 2048, 1024, holder)
        woken_log.clear()
        table.unlock_write(1, holder)
        for key in woken_log:  # losers retry, fail, and re-park (FIFO)
            table.wait(1, _Waiter(key), key * 2048, 1024, owner=key)
    return rounds


def bench_engine_timer_churn(n_timers: int = 20_000, waves: int = 10) -> int:
    """Batch-cancel storms through the tombstone machinery.

    Each wave schedules a keeper plus *n_timers* doomed timeouts just
    past it, cancels the doomed en masse (O(1) marks), and advances the
    clock over the wave: the dead heads trip the majority-threshold
    compaction, so the corpses are dropped in one O(n) rebuild instead
    of firing one by one. One op = one schedule+cancel pair.
    """
    engine = Engine()
    horizon = 0.0
    for _ in range(waves):
        horizon += 1.0  # lint: disable=PERF102 -- sim-clock step, not a float sum
        engine.timeout(horizon)  # keeper: each wave pops something live
        doomed = [engine.timeout(horizon + 0.5) for _ in range(n_timers)]
        for timer in doomed:
            timer.cancel()
        engine.run(until=horizon + 0.75)
    return waves * n_timers


#: rpc_timeout_churn expiry horizon: far enough out that every reply
#: beats its timer, so all n timers are garbage by the churn phase.
_CHURN_EXPIRY = 3600.0


def bench_rpc_timeout_churn(n_calls: int = 100_000) -> Dict[str, float]:
    """The expiry-timer garbage left by *n_calls* outstanding timed RPCs.

    Phase 1 (``issue_wall_s``) pumps *n_calls* concurrent
    ``RpcClient.call(..., timeout=)`` requests through the real UCX/RPC
    stack against an echo server; every reply wins its race, so by the
    end the event queue holds up to *n_calls* expiry-timer corpses.
    Phase 2 (``wall_s``, the reported rate) runs the engine to empty:
    the cost of carrying and retiring that garbage. With cancellation
    on, one compaction drops the corpses wholesale; with it off (the
    sweep's exact side) every timer is heap-popped and fired as a
    no-op. One op = one expiry timer retired.
    """
    engine = Engine()
    fabric = Fabric(engine, latency=0.001, link_bandwidth=1e9)
    client_worker = UCPContext(engine, fabric, "cn").create_worker("cw")
    server_worker = UCPContext(engine, fabric, "sn").create_worker("sw")
    RpcServer(server_worker, lambda req: req.reply("ok"))
    client = RpcClient(client_worker, server_worker.address)
    finished = []

    def caller():
        pending = [client.call("op", size=64, timeout=_CHURN_EXPIRY)
                   for _ in range(n_calls)]
        yield engine.all_of(pending)
        finished.append(engine.now)

    engine.process(caller())
    t0 = time.perf_counter()
    engine.run(until=_CHURN_EXPIRY / 2)
    t1 = time.perf_counter()
    assert finished and client.in_flight == 0, "calls did not all complete"
    census = engine.stats()  # peak garbage, before the drain
    engine.run()
    t2 = time.perf_counter()
    churn = t2 - t1
    stats = engine.stats()
    return {
        "wall_s": round(churn, 6),
        "issue_wall_s": round(t1 - t0, 6),
        "ops": n_calls,
        "ops_per_s": round(n_calls / churn, 1),
        "dead_at_peak": census["dead_pending"],
        "cancelled_total": stats["cancelled_total"],
        "compactions": stats["compactions"],
    }


def bench_heartbeat_storm(n_clients: int = 4096,
                          until: float = 0.4) -> int:
    """*n_clients* fault-tolerant clients heartbeating two servers.

    Every beat is a fire-and-forget timed call whose reply cancels the
    expiry timer; halfway through, half the fleet disconnects abruptly,
    cancelling the parked inter-beat sleeps (the ``_stop_heartbeat``
    path). One op = one simulation event scheduled.
    """
    cluster = Cluster(ClusterConfig(
        n_servers=2, policy="job-fair",
        client=ClientConfig(rpc_timeout=1.0, heartbeat_interval=0.05),
        server=ServerConfig(bandwidth=1 * GB, n_workers=1)))
    engine = cluster.engine
    clients = []

    def app(client):
        yield from client.register_all()

    for i in range(n_clients):
        client = cluster.add_client(
            JobInfo(job_id=i + 1, user=f"u{i % 8}", size=1))
        clients.append(client)
        engine.process(app(client))

    def churn():
        yield engine.timeout(until / 2)
        for client in clients[::2]:
            client.disconnect()

    engine.process(churn())
    cluster.run(until=until)
    return engine._seq  # total events ever scheduled


def _bench_system(contended: bool, n_writes: int) -> Dict[str, float]:
    """A representative 3-job system run on one 4-worker server.

    *contended*: every write targets the same byte range of one shared
    file (worst-case writer-vs-writer lock conflicts); otherwise each
    job writes its own region (lock-free data path).
    """
    cluster = Cluster(ClusterConfig(
        n_servers=1, policy="job-fair",
        server=ServerConfig(bandwidth=1 * GB, n_workers=4)))
    cluster.fs.makedirs("/fs/data")
    path = "/fs/data/shared"
    engine = cluster.engine

    def app(client, idx):
        yield from client.create(path)
        offset = 0 if contended else idx * 64 * MB
        for _ in range(n_writes):
            yield from client.write(path, offset, 4 * MB)

    apps = []
    for idx in range(3):
        client = cluster.add_client(
            JobInfo(job_id=idx + 1, user=f"u{idx}", size=1))
        apps.append(engine.process(app(client, idx)))

    def stop_when_done():
        yield engine.all_of(apps)
        engine.request_stop()

    engine.process(stop_when_done())
    t0 = time.perf_counter()
    cluster.run(until=3600.0)
    wall = time.perf_counter() - t0
    served = sum(s.served_requests for s in cluster.servers.values())
    events = engine._seq  # total events ever scheduled
    return {
        "wall_s": round(wall, 6),
        "ops": served,
        "ops_per_s": round(served / wall, 1),
        "events": events,
        "events_per_s": round(events / wall, 1),
        "sim_time_s": round(engine.now, 6),
    }


# ------------------------------------------------------------------ driver
# (git_rev is repro.harness.workspace.code_rev, re-exported: bench
# artifacts and workspace store keys must agree on the revision string.)
def run_all(quick: bool) -> Dict[str, Dict[str, float]]:
    """Run every kernel; returns ``{kernel: timing dict}``."""
    # Best-of-N is the reported rate; full mode uses enough rounds that
    # scheduler-noise on a shared host cannot masquerade as regression.
    rounds = 3 if quick else 15
    writes = 60 if quick else 200
    results = {
        "scheduler_enqueue_dequeue":
            _time_kernel(bench_scheduler_enqueue_dequeue, rounds),
        "token_draw": _time_kernel(bench_token_draw, rounds),
        "policy_shares_composite":
            _time_kernel(bench_policy_shares_composite, rounds),
        "engine_timeout_churn":
            _time_kernel(bench_engine_timeout_churn, rounds),
        "lambda_sync_round":
            _time_kernel(bench_lambda_sync_round, min(rounds, 3)),
        "gift_epoch": _time_kernel(bench_gift_epoch, min(rounds, 3)),
        "fs_write_path": _time_kernel(bench_fs_write_path, rounds),
        "erasure_encode_decode": _time_kernel(
            lambda: bench_erasure_encode_decode(
                groups=12 if quick else 24), rounds),
        "repair_storm": _time_kernel(
            lambda: bench_repair_storm(n_files=3 if quick else 6),
            min(rounds, 3)),
        "system_contended_write": _bench_system(True, writes),
        "system_disjoint_write": _bench_system(False, writes),
        # Scale-regime kernels: quick mode shrinks the populations so
        # the CI smoke job still covers the code paths cheaply.
        "lambda_sync_delta_n16": bench_lambda_sync_delta(
            n_servers=8 if quick else 16,
            epochs=12 if quick else 24),
        "contended_lock_fanout": _time_kernel(
            lambda: bench_contended_lock_fanout(
                n_waiters=128 if quick else 512,
                rounds=1000 if quick else 4000),
            min(rounds, 3)),
        # Event-queue kernels (ISSUE 10): the cancellation/compaction
        # machinery under timer-heavy churn.
        "engine_timer_churn": _time_kernel(
            lambda: bench_engine_timer_churn(
                n_timers=2_000 if quick else 20_000),
            min(rounds, 3)),
        "rpc_timeout_churn": bench_rpc_timeout_churn(
            10_000 if quick else 100_000),
        "heartbeat_storm_n4096": _time_kernel(
            lambda: bench_heartbeat_storm(256 if quick else 4096), 1),
    }
    return results


# ------------------------------------------------------------- scale sweep
def bench_sync_cell(config: Dict) -> Dict:
    """One (cluster size, layout) point of the sync-cost ladder (sweep
    point kind ``bench_sync``). Sim-deterministic wire metrics — see
    :func:`bench_sync_ladder`. Config keys: ``n_servers``, ``mode``
    (``flat``/``tree``), optional ``fanout`` (8), ``epochs`` (6),
    ``quiescence`` (False)."""
    row = bench_sync_ladder(
        n_servers=int(config["n_servers"]), mode=str(config["mode"]),
        fanout=int(config.get("fanout", 8)),
        epochs=int(config.get("epochs", 6)),
        quiescence=bool(config.get("quiescence", False)))
    row["population"] = row["n_servers"]
    return row


def bench_lambda_delta_cell(config: Dict) -> Dict:
    """One cluster-size point of the λ-sync delta sweep (sweep point
    kind ``bench_lambda_delta``). The reported wire bytes are
    sim-deterministic. Config keys: ``n_servers``, optional
    ``epochs`` (12)."""
    r = bench_lambda_sync_delta(n_servers=int(config["n_servers"]),
                                epochs=int(config.get("epochs", 12)))
    return {"population": int(config["n_servers"]),
            "nominal_bytes": int(r["nominal_bytes"]),
            "payload_bytes": int(r["payload_bytes"]),
            "delta_saved_frac": float(r["delta_saved_frac"])}


def run_scale_sweep(quick: bool = False, workspace=None, jobs: int = 1,
                    rerun: bool = False):
    """The two λ-sync ladders across cluster sizes (sim-deterministic
    wire metrics, not host timings).

    Every cell runs as an independent workspace point: with a
    ``workspace`` attached, cells already stored at this code revision
    are cache hits (``rerun`` invalidates them first) and ``jobs > 1``
    fans cold cells out over processes. Returns ``(sweep, run)``: the
    ``{ladder: rows}`` table plus the runner's
    :class:`~repro.harness.sweep.SweepRun` (hits/misses/speedup).
    """
    from .harness.sweep import ParallelRunner
    points = []
    # λ-sync delta: the encoding changes wire accounting, not host
    # time, so its sweep reports payload savings across cluster sizes.
    for n_servers in ((4, 8) if quick else (4, 8, 16)):
        points.append(("bench_lambda_delta",
                       {"n_servers": n_servers, "epochs": 12}))
    # Server-count ladder, flat vs tree (ISSUE 8): coordinator-inbound
    # gather bytes per epoch stay ~linear in N for the flat round and
    # go sublinear under the aggregation tree. Also sim-deterministic.
    for n_servers in ((16, 64) if quick else (16, 64, 256, 1024)):
        for mode in ("flat", "tree"):
            points.append(("bench_sync",
                           {"n_servers": n_servers, "mode": mode,
                            "fanout": 8, "epochs": 4 if quick else 6}))
    if not quick:
        # One quiescent pair shows the whole-round skip collapsing the
        # steady-state floor to probe-sized traffic.
        for mode in ("flat", "tree"):
            points.append(("bench_sync",
                           {"n_servers": 64, "mode": mode, "fanout": 8,
                            "epochs": 6, "quiescence": True}))
    run = ParallelRunner(workspace=workspace, jobs=jobs).run_points(
        points, rerun=rerun)
    sweep: Dict[str, list] = {}
    for outcome in run.points:
        ladder = ("lambda_sync_ladder" if outcome.kind == "bench_sync"
                  else "lambda_sync_delta")
        sweep.setdefault(ladder, []).append(dict(outcome.result))
    return sweep, run


def run_and_write_sweep(quick: bool = False, out: Optional[str] = None,
                        workspace=None, jobs: int = 1,
                        rerun: bool = False) -> int:
    """Run the scale sweep, print the table, write ``SWEEP_<rev>.json``."""
    rev = git_rev()
    sweep, run = run_scale_sweep(quick, workspace=workspace, jobs=jobs,
                                 rerun=rerun)
    payload = {
        "rev": rev,
        "quick": quick,
        # lint: disable=DET003 -- host metadata stamp in bench output, not sim state
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "sweep": sweep,
    }
    out = out or f"SWEEP_{rev}.json"
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, rows in sweep.items():
        print(f"\n{name}")
        for row in rows:
            if "root_in_bytes_per_epoch" in row:
                tag = row["mode"] + ("+skip" if row.get("quiescent_skips")
                                     else "")
                print(f"  n={row['population']:>5}  {tag:<9s}  "
                      f"root-in {row['root_in_bytes_per_epoch']:>10,} "
                      f"B/epoch  total {row['payload_bytes_per_epoch']:>10,} "
                      f"B/epoch  fan-in {row['max_fanin']}")
            else:
                print(f"  n={row['population']:>5}  "
                      f"nominal {row['nominal_bytes']:>12,} B  "
                      f"payload {row['payload_bytes']:>12,} B  "
                      f"saved {row['delta_saved_frac']:.1%}")
    print()
    print(run.summary())
    print(f"\nwrote {out}")
    return 0


def run_and_write(quick: bool = False, out: Optional[str] = None) -> int:
    """Run every kernel and write ``BENCH_<rev>.json``; returns exit code."""
    rev = git_rev()
    results = run_all(quick)
    payload = {
        "rev": rev,
        "quick": quick,
        # lint: disable=DET003 -- host metadata stamp in bench output, not sim state
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "python": platform.python_version(),
        "results": results,
    }
    out = out or f"BENCH_{rev}.json"
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, r in results.items():
        rate = r.get("ops_per_s", 0.0)
        print(f"{name:32s} {rate:>14,.0f} ops/s   wall {r['wall_s']:.4f}s")
    print(f"wrote {out}")
    return 0


def main(argv=None) -> int:
    """Standalone entry point (``python -m repro bench`` wraps this)."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="fewer rounds / smaller system run (CI smoke)")
    parser.add_argument("--out", default=None,
                        help="output path (default BENCH_<rev>.json in cwd)")
    parser.add_argument("--scale-sweep", action="store_true",
                        help="run the two λ-sync ladders (delta payload, "
                             "flat vs tree fan-in) across cluster sizes")
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel workers for cold sweep cells")
    parser.add_argument("--workspace", default=".workspace",
                        help="content-addressed result store directory")
    parser.add_argument("--no-workspace", action="store_true",
                        help="compute every sweep cell, bypassing the store")
    parser.add_argument("--rerun", action="store_true",
                        help="invalidate stored sweep cells before running")
    args = parser.parse_args(argv)
    if args.scale_sweep:
        from .harness.workspace import Workspace
        ws = None if args.no_workspace else Workspace(args.workspace)
        return run_and_write_sweep(quick=args.quick, out=args.out,
                                   workspace=ws, jobs=args.jobs,
                                   rerun=args.rerun)
    return run_and_write(quick=args.quick, out=args.out)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
