"""Operational statistics: what a burst-buffer operator would watch.

:func:`server_stats` snapshots one server's counters — where cycles
went (service, idle throttling, lock waits) and whether the token
scheduler wasted draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from .server import Server

__all__ = ["ServerStats", "server_stats"]


@dataclass(frozen=True)
class ServerStats:
    """Snapshot of one server's counters."""

    name: str
    scheduler: str
    served_requests: int
    served_bytes: int
    backlog: int
    idle_cycles: int
    lock_waits: int
    errors: int
    active_jobs: int
    sync_rounds: int
    draws: int
    wasted_draws: int
    used_bytes: int


def server_stats(server: "Server") -> ServerStats:
    """Collect *server*'s counters into a snapshot."""
    scheduler = server.scheduler
    return ServerStats(
        name=server.name,
        scheduler=scheduler.name,
        served_requests=server.served_requests,
        served_bytes=server.served_bytes,
        backlog=scheduler.backlog,
        idle_cycles=sum(w.idle_cycles for w in server.workers),
        lock_waits=sum(w.lock_waits for w in server.workers),
        errors=len(server.errors),
        active_jobs=len(server.monitor.table.active_jobs()),
        sync_rounds=server.controller.sync_rounds,
        draws=getattr(scheduler, "draws", 0),
        wasted_draws=getattr(scheduler, "wasted_draws", 0),
        used_bytes=server.fs.nodes[server.name].backend.used_bytes,
    )
