"""Fault-handling counters.

One :class:`FaultStats` instance is shared by every component of a
cluster (servers, clients, controller sync loops, the fault injector):
each layer increments the counters that describe its own recovery
actions, so an availability experiment can report *how much* fault
handling a run needed — retries, failovers, degraded λ-sync rounds —
next to its throughput and fairness numbers.

All counters are zero-cost when no faults occur: they are only touched
on fault-handling paths (a retry, a timeout, a crash), never on the
request hot path.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

__all__ = ["FaultStats"]


@dataclass
class FaultStats:
    """Mutable counter block describing a run's fault-handling activity."""

    #: client-side request retries (timeout or error reply, then re-sent).
    retries: int = 0
    #: RPC calls whose timeout expired before a response arrived.
    rpc_timeouts: int = 0
    #: times a client tore down a server connection and re-registered.
    failovers: int = 0
    #: requests abandoned after exhausting their retry budget.
    requests_failed: int = 0
    #: server replies carrying ``ok=False`` (e.g. injected EIO).
    error_replies: int = 0
    #: λ-sync rounds completed on a partial table (a peer timed out).
    degraded_sync_rounds: int = 0
    #: fabric messages dropped by link faults or down nodes.
    messages_dropped: int = 0
    #: fabric messages delivered late by link-degradation faults.
    messages_delayed: int = 0
    #: heartbeat messages suppressed by a heartbeat-loss fault.
    heartbeats_dropped: int = 0
    #: server crash events.
    server_crashes: int = 0
    #: server recover/restart events.
    server_recoveries: int = 0
    #: queued requests discarded when their server crashed.
    requests_dropped_in_crash: int = 0
    #: duplicate (retried) requests answered from the idempotency cache
    #: or suppressed because the original was still in flight.
    duplicate_requests: int = 0
    #: storage operations failed by an injected device error.
    storage_errors: int = 0
    #: clients disconnected abruptly (no goodbye) by fault injection.
    client_disconnects: int = 0

    def snapshot(self) -> dict:
        """All counters as a plain ``{name: value}`` dict."""
        return asdict(self)

    def report(self) -> str:
        """Human-readable one-counter-per-line summary (non-zero first)."""
        items = sorted(self.snapshot().items(),
                       key=lambda kv: (kv[1] == 0, kv[0]))
        return "\n".join(f"{name:26s} {value}" for name, value in items)
