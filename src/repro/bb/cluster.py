"""Cluster assembly: fabric + servers + shared FS + client factory.

Builds a complete ThemisIO deployment (Fig. 6): N burst-buffer nodes
each running a :class:`~repro.bb.server.Server` over one shared
:class:`~repro.fs.ThemisFS` namespace, wired for λ-delayed
synchronisation, plus compute-node clients created on demand.

The queueing discipline is chosen per cluster: a policy string selects
ThemisIO's statistical token scheduler; ``"fifo"``, ``"gift"`` or
``"tbf"`` select the comparators of §5.4.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.baselines import FifoScheduler, GiftScheduler, TbfScheduler
from ..core.fairness import PlacementMemo
from ..core.policy import FIFO_POLICY_NAME, Policy
from ..core.scheduler import Scheduler, StatisticalTokenScheduler
from ..errors import ConfigError
from ..core.jobinfo import JobInfo
from ..fs.filesystem import ThemisFS
from ..fs.journal import JournaledFS
from ..metrics.faultstats import FaultStats
from ..metrics.sampler import ThroughputSampler
from ..net.fabric import Fabric
from ..sim.engine import Engine
from ..sim.rng import RngRegistry
from ..units import GB, MiB, TiB, USEC
from .client import Client, ClientConfig
from .server import Server, ServerConfig

__all__ = ["Cluster", "ClusterConfig", "make_scheduler"]


@dataclass
class ClusterConfig:
    """Shape of a deployment."""

    n_servers: int = 1
    policy: str = "job-fair"            # or "fifo" / "gift" / "tbf"
    server: ServerConfig = field(default_factory=ServerConfig)
    client: ClientConfig = field(default_factory=ClientConfig)
    capacity_per_server: int = 6 * TiB   # §1: 6.2 TB Optane per node
    stripe_size: int = MiB
    stripe_count: int = 1                # servers per file by default
    storage_backend: str = "extent"      # or "log" (§7 future-work design)
    #: journal namespace mutations (JournaledFS) so crashed servers can
    #: rebuild their metadata; combine with storage_backend="log" for
    #: full crash durability of acknowledged writes.
    journal: bool = False
    fabric_latency: float = 2 * USEC
    link_bandwidth: float = 25 * GB
    seed: int = 0
    opportunity_fair: bool = True        # ablation knob for ThemisIO
    gift_mu: float = 0.5                 # §5.4 reference interval
    tbf_declared_jobs: int = 2           # "user-supplied" rate divisor
    tbf_rates: Optional[Dict[int, float]] = None
    #: erasure-coded placement ``(k, n)``: every file gets k data +
    #: (n - k) parity shares on n distinct servers. None (the default)
    #: keeps plain striping — and the exact pre-erasure traces.
    erasure: Optional[Tuple[int, int]] = None
    #: run the crash-driven repair manager (requires ``erasure``).
    repair: bool = False
    #: failure-detector poll period of the repair manager (seconds).
    repair_detect_interval: float = 0.5

    def __post_init__(self):
        if self.n_servers < 1:
            raise ConfigError("n_servers must be >= 1")
        if self.stripe_count < 1 or self.stripe_size < 1:
            raise ConfigError("stripe_count and stripe_size must be >= 1")
        if self.storage_backend not in ("extent", "log"):
            raise ConfigError(
                f"unknown storage_backend {self.storage_backend!r}")
        if self.erasure is not None:
            k, n = self.erasure
            if not 1 <= k < n:
                raise ConfigError(f"erasure needs 1 <= k < n: k={k} n={n}")
            if n > self.n_servers:
                raise ConfigError(
                    f"erasure n={n} exceeds n_servers={self.n_servers}")
        if self.repair:
            if self.erasure is None:
                raise ConfigError("repair requires erasure=(k, n)")
            if self.repair_detect_interval <= 0:
                raise ConfigError("repair_detect_interval must be positive")


def make_scheduler(config: ClusterConfig, server_name: str,
                   rng: np.random.Generator) -> Scheduler:
    """Instantiate the configured queueing discipline for one server."""
    name = config.policy.strip().lower()
    if name == FIFO_POLICY_NAME:
        return FifoScheduler()
    if name == "gift":
        return GiftScheduler(capacity=config.server.bandwidth,
                             mu=config.gift_mu)
    if name == "tbf":
        return TbfScheduler(capacity=config.server.bandwidth,
                            rates=config.tbf_rates,
                            declared_jobs=config.tbf_declared_jobs)
    policy = Policy.parse(config.policy)
    return StatisticalTokenScheduler(policy, rng,
                                     opportunity_fair=config.opportunity_fair)


class Cluster:
    """A running deployment plus its client factory."""

    def __init__(self, config: Optional[ClusterConfig] = None):
        self.config = config or ClusterConfig()
        self.engine = Engine()
        self.rng = RngRegistry(self.config.seed)
        self.fabric = Fabric(self.engine,
                             latency=self.config.fabric_latency,
                             link_bandwidth=self.config.link_bandwidth)
        self.sampler = ThroughputSampler()
        self.fault_stats = FaultStats()
        server_names = [f"bb{i}" for i in range(self.config.n_servers)]
        fs_cls = JournaledFS if self.config.journal else ThemisFS
        self.fs = fs_cls(server_names,
                         capacity_per_server=self.config.capacity_per_server,
                         stripe_size=self.config.stripe_size,
                         default_stripe_count=self.config.stripe_count,
                         clock=lambda: self.engine.now,
                         storage_backend=self.config.storage_backend,
                         erasure=self.config.erasure)
        self.servers: Dict[str, Server] = {}
        #: one Fig. 5 projection per distinct merged state, cluster-wide.
        self.placement_memo = PlacementMemo()
        for name in server_names:
            scheduler = make_scheduler(
                self.config, name, self.rng.stream(f"sched.{name}"))
            self.servers[name] = Server(
                self.engine, self.fabric, name, self.fs, scheduler,
                self.config.server, self.sampler, self.fault_stats,
                self.placement_memo)
        # λ-delayed fairness wiring (no-op for a single server).
        sync_addresses = {name: server.sync_address
                          for name, server in self.servers.items()}
        if len(self.servers) > 1 and self.config.server.sync_interval > 0:
            for server in self.servers.values():
                server.connect_peers(sync_addresses)
        self._client_seq = 0
        self.clients: Dict[str, Client] = {}
        self.repair = None
        if self.config.repair:
            from .repair import RepairManager
            self.repair = RepairManager(
                self, detect_interval=self.config.repair_detect_interval)

    # ---------------------------------------------------------------- clients
    def add_client(self, job: JobInfo, client_id: Optional[str] = None,
                   config: Optional[ClientConfig] = None) -> Client:
        """Create a compute-node client for *job* (one per node
        typically), with the cluster's client config unless the caller
        brings its own (the repair manager bounds its retries)."""
        self._client_seq += 1
        client_id = client_id or f"client-{self._client_seq}"
        config = config or self.config.client
        node_name = f"cn-{client_id}"
        ctl_addresses = {name: (name, Server.CTL_WORKER)
                         for name in self.servers}
        # Only a client whose calls time out backs off, and draws jitter.
        rng = (self.rng.stream(f"client.{client_id}")
               if config.rpc_timeout > 0 else None)
        client = Client(self.engine, self.fabric, node_name, client_id, job,
                        self.fs, ctl_addresses, config, self.fault_stats,
                        rng)
        self.clients[client_id] = client
        return client

    # ----------------------------------------------------------- fault model
    def crash_server(self, name: str) -> None:
        """Fail-stop server *name* now (see :meth:`Server.crash`)."""
        self.servers[name].crash()

    def restart_server(self, name: str) -> None:
        """Recover server *name* now (see :meth:`Server.restart`)."""
        self.servers[name].restart()

    # ------------------------------------------------------------------- run
    def run(self, until: Optional[float] = None) -> None:
        """Advance the simulation until *until* (or until idle)."""
        self.engine.run(until=until)

    def total_served_bytes(self) -> int:
        """Data bytes served across every server."""
        return sum(server.served_bytes for server in self.servers.values())

    # ------------------------------------------------------------------ sync
    def sync_digest_log(self) -> list:
        """Merged-table digests per sync epoch, cluster-wide.

        Each λ-sync epoch is driven by one rotating root, which logs
        ``(epoch, digest)``; collecting and sorting across servers
        yields the per-epoch digest sequence — every
        ``sync_tree_fanout`` must produce the identical sequence for
        the same workload (DESIGN.md §13).
        """
        log: list = []
        for server in self.servers.values():
            log.extend(server.controller.digest_log)
        return sorted(log)

    def sync_stats(self) -> Dict[str, int]:
        """Cluster-wide λ-sync counters, plus the peak coordinator/root
        inbound gather bytes per epoch-driving node (the fan-in hotspot
        the aggregation tree exists to flatten) and the Fig. 5 projection
        requests the controllers made against the solves they cost."""
        ctls = [server.controller for server in self.servers.values()]
        return {
            "sync_rounds": sum(c.sync_rounds for c in ctls),
            "coordinated_rounds": sum(c.coordinated_rounds for c in ctls),
            "degraded_rounds": sum(c.degraded_rounds for c in ctls),
            # Every push carries the full table; the ledger still reads
            # the delta count (ROADMAP item 5(b) retires the key).
            "delta_pushes": 0,
            "full_pushes": sum(c.full_pushes for c in ctls),
            "push_hash_skips": sum(c.push_hash_skips for c in ctls),
            "coord_gather_payload_bytes":
                sum(c.coord_gather_payload_bytes for c in ctls),
            "relay_gather_payload_bytes":
                sum(c.relay_gather_payload_bytes for c in ctls),
            "max_gather_fanin": max(c.max_gather_fanin for c in ctls),
            "placement_requests": self.placement_memo.requests,
            "placement_solves": self.placement_memo.solves,
        }
