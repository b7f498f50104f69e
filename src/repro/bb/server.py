"""The ThemisIO burst-buffer server (§4.1).

Four components on each burst-buffer node:

- **job monitor** (:mod:`repro.bb.monitor`) — heartbeat-driven job table;
- **I/O request communicator** — the RPC surface on the client-facing
  UCP worker pool; groups inbound requests into per-job queues (inside
  the scheduler);
- **controller** (:mod:`repro.bb.controller`) — token allocation and
  λ-delayed synchronisation with peer servers;
- **workers** (:mod:`repro.bb.worker`) — service loops sharing the
  storage device's bandwidth.

The queueing discipline is pluggable: ThemisIO's statistical token
scheduler or any comparator (FIFO / GIFT / TBF).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Tuple)

from ..core.fairness import PlacementMemo
from ..core.scheduler import Scheduler
from ..errors import ConfigError
from ..fs.filesystem import ThemisFS
from ..metrics.faultstats import FaultStats
from ..metrics.sampler import ThroughputSampler
from ..net.fabric import Fabric
from ..sim.process import Event
from ..ucx import Address, RpcRequest, RpcServer, UCPContext, WorkerPool
from ..units import GB, USEC
from .controller import Controller
from .monitor import JobMonitor
from .request import IORequest
from .worker import IOWorker

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Engine

__all__ = ["Server", "ServerConfig"]


@dataclass
class ServerConfig:
    """Tunables of one burst-buffer server.

    Defaults approximate the paper's testbed: ~22 GB/s combined
    read+write service rate per server (§1), microsecond-scale request
    latencies (§5.3.1: "actual response time of each I/O operation is on
    the order of 1 microsecond").
    """

    bandwidth: float = 22 * GB        # device service rate, bytes/second
    n_workers: int = 8                # concurrent I/O workers
    op_latency: float = 5 * USEC      # fixed per-data-request overhead
    meta_latency: float = 20 * USEC   # metadata op service time
    heartbeat_timeout: float = 5.0    # job -> inactive after this silence
    expire_check_interval: float = 1.0
    sync_interval: float = 0.5        # λ of §3.1 (500 ms default, §5.6)
    #: time a controller spends serialising/merging one table exchange;
    #: §5.6 observes ~50 ms as ThemisIO's effectiveness boundary on
    #: Frontera, dominated by server processing speed — λ below this
    #: cannot speed convergence up further.
    sync_processing_time: float = 0.035
    client_pool_workers: int = 4      # UCP workers shared among clients
    #: per-peer λ-sync RPC timeout; a peer that does not answer within
    #: this window is skipped and the round proceeds on the partial
    #: table (degraded mode). 0 disables timeouts: the all-gather is the
    #: original lock-step exchange, which a dead peer would wedge — keep
    #: it 0 only for runs that never crash servers.
    sync_timeout: float = 0.0
    #: branching factor of the λ-sync aggregation tree (DESIGN.md §13):
    #: each epoch's members form a deterministic k-ary tree under the
    #: rotating root, interior nodes merging their subtree before
    #: forwarding, so peak per-node fan-in is k. 0 (default) is the flat
    #: round — the height-1 tree, k = N−1, worked out from the member
    #: list; every k produces identical merged tables per epoch.
    sync_tree_fanout: int = 0

    def __post_init__(self):
        # Each test is negated so that NaN, which compares false both
        # ways, is rejected too.
        if not (self.bandwidth > 0 and self.n_workers >= 1):
            raise ConfigError("bandwidth must be > 0 and n_workers >= 1")
        if not (self.op_latency >= 0 and self.meta_latency >= 0):
            raise ConfigError("latencies must be non-negative")
        if not (self.sync_interval >= 0 and self.sync_processing_time >= 0
                and self.sync_timeout >= 0):
            raise ConfigError("sync_interval, sync_processing_time and "
                              "sync_timeout must be >= 0")
        if self.client_pool_workers < 1:
            raise ConfigError("client_pool_workers must be >= 1")
        if not (self.heartbeat_timeout > 0
                and self.expire_check_interval > 0):
            raise ConfigError("heartbeat_timeout and expire_check_interval "
                              "must be positive")
        if self.sync_tree_fanout < 0 or self.sync_tree_fanout == 1:
            raise ConfigError(
                "sync_tree_fanout must be 0 (flat round) or >= 2")


class Server:
    """One burst-buffer node running the full server stack."""

    #: worker name clients address their register/heartbeat traffic to.
    CTL_WORKER = "ctl"

    #: completed replies remembered per client request id (idempotency).
    _REQ_CACHE_MAX = 1024

    def __init__(self, engine: "Engine", fabric: Fabric, name: str,
                 fs: ThemisFS, scheduler: Scheduler, config: ServerConfig,
                 sampler: ThroughputSampler, fault_stats: FaultStats,
                 placement_memo: PlacementMemo):
        self.engine = engine
        self.fabric = fabric
        self.name = name
        self.fs = fs
        self.scheduler = scheduler
        self.config = config
        self.sampler = sampler
        self.fault_stats = fault_stats
        #: the cluster's shared Fig. 5 projection memo.
        self.placement_memo = placement_memo

        # --- crash/restart lifecycle state -----------------------------
        self.crashed = False
        #: bumped on every crash; workers snapshot it per request and
        #: abandon work that straddles a crash.
        self.crash_epoch = 0
        self.restarted_at: Optional[float] = None
        #: time of the first request served after the latest restart
        #: (recovery-time metric); None until it happens.
        self.first_completion_after_restart: Optional[float] = None
        self.last_recovery: Optional[Dict[str, Any]] = None
        self._restart_waiters: List[Event] = []
        #: fault-injection hook: called per request before the FS op;
        #: returns an exception to fail the op with, or None.
        self.storage_fault: Optional[
            Callable[[IORequest, float], Optional[Exception]]] = None
        # Idempotency: completed replies by client request id (LRU) plus
        # the ids currently being serviced (duplicates of those are
        # dropped; the original's reply answers the retry too).
        self._req_cache: "OrderedDict[str, Tuple[Any, int]]" = OrderedDict()
        self._inflight_req: set = set()

        self.ctx = UCPContext(engine, fabric, name)
        self.monitor = JobMonitor(
            engine, heartbeat_timeout=self.config.heartbeat_timeout,
            check_interval=self.config.expire_check_interval,
            on_expire=self._on_jobs_expired)
        self.controller = Controller(self, self.config.sync_interval)

        # Communicator: control worker + client-facing pool, one RPC
        # dispatcher per worker.
        ctl = self.ctx.create_worker(self.CTL_WORKER)
        RpcServer(ctl, self._on_control)
        self.pool = WorkerPool(self.ctx, "cs-",
                               self.config.client_pool_workers)
        for worker in self.pool.workers:
            RpcServer(worker, self._on_request)
        # Server-server sync surface.
        sync_worker = self.ctx.create_worker("ss")
        RpcServer(sync_worker, self._on_sync)
        self.sync_address: Address = sync_worker.address

        self.workers: List[IOWorker] = [
            IOWorker(self, i) for i in range(self.config.n_workers)]
        self._work_waiters: List[Event] = []
        self.errors: List[Tuple[IORequest, Exception]] = []

    # --------------------------------------------------------------- service
    def service_time(self, request: IORequest) -> float:
        """Simulated device time one worker spends on *request*."""
        if request.op.is_data:
            per_worker_bw = self.config.bandwidth / self.config.n_workers
            return self.config.op_latency + request.size / per_worker_bw
        return self.config.meta_latency

    def work_event(self) -> Event:
        """Event a worker parks on when the scheduler is empty."""
        ev = Event(self.engine)
        self._work_waiters.append(ev)
        return ev

    def _notify_work(self, limit: Optional[int] = None) -> None:
        """Wake parked workers, longest-parked first: all of them, or at
        most *limit*."""
        waiters = self._work_waiters
        n = len(waiters) if limit is None else limit
        self._work_waiters = waiters[n:]
        for ev in waiters[:n]:
            ev.succeed()

    def record_error(self, request: IORequest, exc: Exception) -> None:
        """Log a failed request (inspected by tests and operators)."""
        self.errors.append((request, exc))

    def policy_shares(self, active_jobs) -> Dict[int, float]:
        """Global policy shares, if this server runs a policy scheduler
        (comparator disciplines have no share concept -> {})."""
        policy = getattr(self.scheduler, "policy", None)
        if policy is None:
            return {}
        return policy.shares(active_jobs)

    # ----------------------------------------------------------- communicator
    def _on_request(self, rpc: RpcRequest) -> None:
        """An I/O request arrived on a pool worker: the body is the
        client's :class:`IORequest`."""
        request: IORequest = rpc.body
        req_id = request.req_id
        if req_id is not None:
            cached = self._req_cache.get(req_id)
            if cached is not None:
                # Retry of an already-completed request: replay the
                # stored reply instead of re-executing (idempotency).
                self._req_cache.move_to_end(req_id)
                self.fault_stats.duplicate_requests += 1
                rpc.reply(cached[0], size=cached[1])
                return
            if req_id in self._inflight_req:
                # Retry raced the original, which is still being
                # serviced; its eventual reply answers this retry too.
                self.fault_stats.duplicate_requests += 1
                return
            self._inflight_req.add(req_id)
        if self.monitor.observe(request.job, request.client_id):
            self.controller.refresh_tokens()
        request.rpc = rpc
        request.arrival = self.engine.now
        self.scheduler.enqueue(request, self.engine.now)
        # One worker per queued request is all that can find work: the
        # rest would dequeue nothing and park again in the same order.
        self._notify_work(self.scheduler.backlog)

    def cache_reply(self, req_id: str, body: Any, size: int) -> None:
        """Remember a completed reply for client request id *req_id*."""
        self._inflight_req.discard(req_id)
        self._req_cache[req_id] = (body, size)
        if len(self._req_cache) > self._REQ_CACHE_MAX:
            self._req_cache.popitem(last=False)

    def forget_request(self, req_id: str) -> None:
        """Drop a request id without caching its reply.

        Used for error replies: the request was *not* applied, so a
        client retry must re-execute it rather than replay the failure
        (a cached EIO would otherwise outlive the fault that caused it).
        """
        self._inflight_req.discard(req_id)

    def _on_control(self, rpc: RpcRequest) -> None:
        """register / heartbeat / goodbye traffic."""
        body = rpc.body
        kind = body["kind"]
        client_id = body["client_id"]
        if kind == "register":
            if self.monitor.observe(body["job"], client_id):
                self.controller.refresh_tokens()
            worker = self.pool.assign(client_id)
            rpc.reply({"ok": True, "io_worker": worker.name})
        elif kind == "heartbeat":
            # A beat can reactivate a job that expired in silence.
            if self.monitor.observe(body["job"], client_id):
                self.controller.refresh_tokens()
            rpc.reply({"ok": True})
        elif kind == "goodbye":
            self.pool.release(client_id)
            job_id = self.monitor.client_exit(client_id)
            if job_id is not None and not self.monitor.client_count(job_id):
                if self.monitor.table.deactivate(job_id):
                    self.controller.refresh_tokens()
            rpc.reply({"ok": True})
        else:
            rpc.reply({"ok": False, "error": f"unknown control op {kind!r}"})

    def _on_sync(self, rpc: RpcRequest) -> None:
        self.controller.handle_sync(rpc)

    # ----------------------------------------------------------------- expiry
    def _on_jobs_expired(self, job_ids: List[int]) -> None:
        """Heartbeat timeout: drop the jobs' client mappings and re-token."""
        for job_id in job_ids:
            clients = self.monitor.clients_of(job_id)
            self.pool.release_many(clients)
            for client_id in clients:
                self.monitor.client_exit(client_id)
        self.controller.refresh_tokens()

    # ----------------------------------------------------------- crash model
    def crash(self) -> None:
        """Fail-stop this server: every volatile structure is lost.

        The node stops transmitting and receiving, queued requests
        vanish, the reply cache / client mappings / job table / peer
        knowledge are wiped, locks are released (waiters wake and
        observe the crash), and the file system loses whatever its
        backend loses (:meth:`ThemisFS.crash_node`). Clients see only
        silence and recover via timeout + retry. Idempotent while down.
        """
        if self.crashed:
            return
        self.crashed = True
        self.crash_epoch += 1
        self.fault_stats.server_crashes += 1
        self.fabric.set_node_down(self.name)
        self.fault_stats.requests_dropped_in_crash += len(
            self.scheduler.drain())
        self._req_cache.clear()
        self._inflight_req.clear()
        self.pool.release_many(self.pool.mapped_clients)
        self.monitor.reset()
        self.controller.reset()
        self.fs.crash_node(self.name)
        # Wake idle workers so they observe the crash and park on the
        # restart event instead of the (now meaningless) work event.
        self._notify_work()

    def restart(self) -> None:
        """Recover and rejoin: rebuild storage state, resume service.

        Runs :meth:`ThemisFS.recover_node` (journal replay + log-segment
        scan when those layers are configured), clears the node's down mark,
        recomputes tokens from the empty-but-alive table, and wakes the
        workers. Clients re-register on their next retry; peers re-merge
        this server's table at their next λ-sync round.
        """
        if not self.crashed:
            return
        self.last_recovery = self.fs.recover_node(self.name)
        self.crashed = False
        self.restarted_at = self.engine.now
        self.first_completion_after_restart = None
        self.fault_stats.server_recoveries += 1
        self.fabric.set_node_down(self.name, down=False)
        self.controller.refresh_tokens(force=True)
        waiters, self._restart_waiters = self._restart_waiters, []
        for ev in waiters:
            ev.succeed()
        self._notify_work()

    def restart_event(self) -> Event:
        """Event a worker parks on while the server is crashed.

        Fires at the next :meth:`restart`; already-succeeded if the
        server is currently up.
        """
        ev = Event(self.engine)
        if not self.crashed:
            ev.succeed()
            return ev
        self._restart_waiters.append(ev)
        return ev

    # ------------------------------------------------------------------ intro
    def connect_peers(self, peers: Dict[str, Address]) -> None:
        """Give the controller the peer sync addresses (λ loop starts)."""
        self.controller.connect_peers(peers)

    @property
    def served_bytes(self) -> int:
        return sum(worker.served_bytes for worker in self.workers)

    @property
    def served_requests(self) -> int:
        return sum(worker.served_requests for worker in self.workers)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Server {self.name} sched={self.scheduler.name}>"
