"""Arms a :class:`~repro.faults.plan.FaultPlan` against a live cluster.

The injector translates declarative faults into mechanism:

- :class:`ServerCrash` → ``engine.call_at`` callbacks invoking
  :meth:`Server.crash` / :meth:`Server.restart`;
- :class:`LinkFault` / :class:`HeartbeatLoss` → one composed fabric
  fault filter evaluated per message at send time;
- :class:`StorageFault` → a per-server ``storage_fault`` hook evaluated
  per request inside the I/O worker;
- :class:`ClientDisconnect` → ``engine.call_at`` calling
  :meth:`Client.disconnect`.

Each probabilistic fault draws from its own named rng stream
(``faults.link.{i}`` / ``faults.storage.{i}``, *i* = position in the
sorted plan), so adding one fault never perturbs another's coin flips
and identical (seed, plan) pairs replay bit-identically.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

from ..errors import ConfigError, FSError
from ..net.fabric import DROP, FaultVerdict
from ..net.message import Message
from .plan import (ClientDisconnect, FaultPlan, HeartbeatLoss, LinkFault,
                   ServerCrash, StorageFault)

if TYPE_CHECKING:  # pragma: no cover
    from ..bb.cluster import Cluster

__all__ = ["FaultInjector"]

class FaultInjector:
    """Binds a fault plan to a cluster; :meth:`arm` makes it live."""

    def __init__(self, cluster: "Cluster", plan: FaultPlan):
        self.cluster = cluster
        self.plan = plan
        self.stats = cluster.fault_stats
        self.armed = False
        self._link_faults: List[Tuple[LinkFault, object]] = []
        self._hb_faults: List[HeartbeatLoss] = []

    # ------------------------------------------------------------------ arming
    def arm(self) -> None:
        """Install every fault (idempotent is *not* supported: arm once)."""
        if self.armed:
            raise ConfigError("fault plan already armed")
        cluster = self.cluster
        server_cfg = cluster.config.server
        if (len(cluster.servers) > 1 and server_cfg.sync_interval > 0
                and server_cfg.sync_timeout == 0
                and any(isinstance(f, ServerCrash)
                        or (isinstance(f, LinkFault) and f.drop_prob > 0)
                        for f in self.plan.faults)):
            # A sync probe that is lost waits forever without a timeout,
            # and the root that sent it never drives another round.
            raise ConfigError(
                "a plan that crashes servers or drops messages needs "
                "ServerConfig.sync_timeout > 0 when λ-sync is on")
        self.armed = True
        engine = cluster.engine

        storage: dict = {}  # server -> [(fault, rng)]
        for i, fault in enumerate(self.plan.faults):
            if isinstance(fault, ServerCrash):
                if fault.server not in cluster.servers:
                    raise ConfigError(f"unknown server {fault.server!r}")
                server = cluster.servers[fault.server]
                engine.call_at(fault.at, server.crash)
                if fault.restart_at is not None:
                    engine.call_at(fault.restart_at, server.restart)
            elif isinstance(fault, LinkFault):
                rng = cluster.rng.stream(f"faults.link.{i}")
                self._link_faults.append((fault, rng))
            elif isinstance(fault, HeartbeatLoss):
                self._hb_faults.append(fault)
            elif isinstance(fault, StorageFault):
                if fault.server not in cluster.servers:
                    raise ConfigError(f"unknown server {fault.server!r}")
                rng = cluster.rng.stream(f"faults.storage.{i}")
                storage.setdefault(fault.server, []).append((fault, rng))
            elif isinstance(fault, ClientDisconnect):
                engine.call_at(fault.at, self._make_disconnect(fault))

        if self._link_faults or self._hb_faults:
            cluster.fabric.set_fault_filter(self._filter)
        for name, entries in storage.items():
            cluster.servers[name].storage_fault = self._make_storage_hook(
                entries)

    # ------------------------------------------------------------- mechanisms
    def _make_disconnect(self, fault: ClientDisconnect):
        def fire() -> None:
            client = self.cluster.clients.get(fault.client_id)
            if client is not None and not client.closed:
                client.disconnect()
        return fire

    def _make_storage_hook(self, entries):
        def hook(request, now: float) -> Optional[Exception]:
            for fault, rng in entries:
                if not fault.start <= now < fault.stop:
                    continue
                if (fault.error_rate >= 1.0
                        or float(rng.random()) < fault.error_rate):
                    return FSError(
                        f"injected EIO on {fault.server} ({request.op.value} "
                        f"{request.path})")
            return None
        return hook

    def _filter(self, message: Message) -> FaultVerdict:
        """Per-message verdict: heartbeat loss first, then link faults.

        Evaluated once per send in send order; the first matching
        dropping fault wins, otherwise the first matching delay applies.
        """
        now = self.cluster.engine.now
        if self._hb_faults and self._is_heartbeat(message):
            for fault in self._hb_faults:
                if not fault.start <= now < fault.stop:
                    continue
                body = message.payload.body or {}
                if (fault.client_id is None
                        or body.get("client_id") == fault.client_id):
                    self.stats.heartbeats_dropped += 1
                    return DROP
        delay: Optional[float] = None
        for fault, rng in self._link_faults:
            if not fault.start <= now < fault.stop:
                continue
            if not fault.matches(message.src, message.dst):
                continue
            if fault.drop_prob > 0 and (
                    fault.drop_prob >= 1.0
                    or float(rng.random()) < fault.drop_prob):
                self.stats.messages_dropped += 1
                return DROP
            if delay is None and fault.delay > 0:
                delay = fault.delay
        if delay is not None:
            self.stats.messages_delayed += 1
        return delay

    @staticmethod
    def _is_heartbeat(message: Message) -> bool:
        """True for RPC heartbeat requests (control-plane beats only):
        only a request payload has an ``op``."""
        return getattr(message.payload, "op", None) == "heartbeat"
