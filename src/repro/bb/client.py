"""The ThemisIO client (§4.1, §4.2).

Runs with the application on a compute node. It gathers job metadata
(job id, user, group, size), registers with each server it talks to
(receiving the UCP pool worker the server assigned to it), forwards I/O
requests, sends periodic heartbeats, and notifies servers on exit so
they can destroy the worker mapping entries.

Data placement is deterministic (consistent hashing + stripe records),
so the client computes each operation's target servers itself and splits
multi-server operations into per-server requests, awaiting all slices.

All operations are simulation generators: drive them with
``yield from client.write(...)`` inside a process, or wrap with
``engine.process(...)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from ..core.jobinfo import JobInfo
from ..errors import ConfigError, FileNotFound, InterruptError, RpcTimeout
from ..fs.filesystem import ThemisFS
from ..fs.striping import (ErasureSpec, group_range, map_range,
                           parity_spans, server_spans)
from ..metrics.faultstats import FaultStats
from ..net.fabric import Fabric
from ..sim.process import Event
from ..ucx import Address, RpcClient, UCPContext

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Engine

__all__ = ["Client", "ClientConfig"]

#: Fixed wire bytes of a request header (op, path, job metadata, offsets).
_HEADER_BYTES = 64


@dataclass
class ClientConfig:
    heartbeat_interval: float = 0.5
    #: per-RPC timeout in seconds; 0 disables the fault-tolerant path
    #: entirely (requests wait forever, exactly the original behaviour —
    #: and the original event traces, bit for bit).
    rpc_timeout: float = 0.0
    #: retry budget per logical request; negative = retry forever.
    rpc_retries: int = -1
    #: first retry backoff in seconds (doubles per retry, plus jitter).
    retry_backoff: float = 0.05
    #: backoff growth cap in seconds.
    retry_backoff_max: float = 1.0

    def __post_init__(self):
        if self.heartbeat_interval <= 0:
            raise ConfigError("heartbeat_interval must be positive")
        if self.rpc_timeout < 0:
            raise ConfigError("rpc_timeout must be >= 0")
        if self.retry_backoff <= 0 or self.retry_backoff_max < self.retry_backoff:
            raise ConfigError(
                "need 0 < retry_backoff <= retry_backoff_max")


class Client:
    """One application process-group's connection to the burst buffer."""

    def __init__(self, engine: "Engine", fabric: Fabric, node_name: str,
                 client_id: str, job: JobInfo, fs: ThemisFS,
                 server_ctl: Dict[str, Address],
                 config: Optional[ClientConfig] = None,
                 rng=None, fault_stats: Optional[FaultStats] = None):
        self.engine = engine
        self.client_id = client_id
        self.job = job
        self.fs = fs
        self.config = config or ClientConfig()
        self.ctx = UCPContext(engine, fabric, node_name)
        self._server_ctl = dict(server_ctl)   # server name -> ctl address
        self._ctl: Dict[str, RpcClient] = {}
        self._io: Dict[str, RpcClient] = {}
        self._io_pending: Dict[str, object] = {}  # server -> in-progress Event
        self._heartbeat_proc = None
        self._hb_sleep: Optional[Event] = None  # pending inter-beat timer
        self.closed = False
        self.ops_completed = 0
        #: fault tolerance on? (timeout + retry + failover + req ids)
        self._ft = self.config.rpc_timeout > 0
        self._rng = rng  # jitter source (optional; None = no jitter)
        self.stats = fault_stats if fault_stats is not None else FaultStats()
        self._req_seq = itertools.count(1)

    # ------------------------------------------------------------ connection
    def _ctl_client(self, server: str) -> RpcClient:
        client = self._ctl.get(server)
        if client is None:
            worker = self.ctx.create_worker(f"ctl-{server}")
            client = RpcClient(worker, self._server_ctl[server])
            self._ctl[server] = client
        return client

    def _ensure_io(self, server: str):
        """Generator: the RPC client for *server*'s assigned IO worker.

        Concurrent first contacts to the same server wait on one shared
        registration instead of racing to create duplicate workers.
        """
        client = self._io.get(server)
        if client is not None:
            return client
        pending = self._io_pending.get(server)
        if pending is not None:
            yield pending
            return self._io[server]
        pending = Event(self.engine)
        self._io_pending[server] = pending
        try:
            if self._ft:
                resp = yield from self._register_ft(server)
            else:
                resp = yield self._ctl_client(server).call(
                    "register",
                    {"kind": "register", "client_id": self.client_id,
                     "job": self.job},
                    size=_HEADER_BYTES)
        except BaseException:
            # Registration gave up (bounded retry budget): unblock any
            # ops sharing this registration with the same failure.
            del self._io_pending[server]
            pending.defuse()
            pending.fail(RpcTimeout(f"registration with {server} failed"))
            raise
        worker = self.ctx.create_worker(f"io-{server}")
        server_node = self._server_ctl[server][0]
        client = RpcClient(worker, (server_node, resp["io_worker"]))
        self._io[server] = client
        del self._io_pending[server]
        pending.succeed()
        if self._heartbeat_proc is None:
            self._heartbeat_proc = self.engine.process(self._heartbeat_loop())
        return client

    def _register_ft(self, server: str):
        """Generator: register with *server*, retrying through outages."""
        cfg = self.config
        delay = cfg.retry_backoff
        attempt = 0
        while True:
            call = self._ctl_client(server).call(
                "register",
                {"kind": "register", "client_id": self.client_id,
                 "job": self.job},
                size=_HEADER_BYTES, timeout=cfg.rpc_timeout)
            try:
                return (yield call)
            except RpcTimeout:
                self.stats.rpc_timeouts += 1
                attempt += 1
                if 0 <= cfg.rpc_retries < attempt:
                    self.stats.requests_failed += 1
                    raise
                self.stats.retries += 1
                yield self.engine.timeout(delay + self._jitter(delay))
                delay = min(delay * 2, cfg.retry_backoff_max)

    def _jitter(self, delay: float) -> float:
        """Up to 10% extra backoff from the client's rng stream (0 if
        no rng was supplied); keeps retry storms de-synchronised while
        staying deterministic per seed."""
        if self._rng is None:
            return 0.0
        return float(self._rng.random()) * delay * 0.1

    def _failover(self, server: str) -> None:
        """Tear down the IO connection to *server*; the next request
        re-registers (the server may assign a different pool worker)."""
        client = self._io.pop(server, None)
        if client is None:
            return
        self.stats.failovers += 1
        client.worker.close()

    def _next_req_id(self) -> str:
        """A fresh idempotency id, reused verbatim across retries."""
        return f"{self.client_id}#{next(self._req_seq)}"

    def _request(self, server: str, body: Dict[str, Any], wire_size: int):
        """Generator: deliver one idempotent request, retrying with
        exponential backoff + jitter through timeouts, error replies,
        and server restarts. *body* carries a ``req_id`` so the server
        deduplicates retries that raced a slow original.
        """
        cfg = self.config
        delay = cfg.retry_backoff
        attempt = 0
        last_error = "timeout"
        while True:
            client = yield from self._ensure_io(server)
            call = client.call("io", body, size=wire_size,
                               timeout=cfg.rpc_timeout)
            try:
                resp = yield call
            except RpcTimeout:
                self.stats.rpc_timeouts += 1
                self._failover(server)
                resp = None
                last_error = "timeout"
            if resp is not None:
                if resp.get("ok", True):
                    return resp
                last_error = resp.get("error", "EIO")
            attempt += 1
            if 0 <= cfg.rpc_retries < attempt:
                self.stats.requests_failed += 1
                raise RpcTimeout(
                    f"request to {server} abandoned after {attempt} "
                    f"attempts (last error: {last_error})")
            self.stats.retries += 1
            yield self.engine.timeout(delay + self._jitter(delay))
            delay = min(delay * 2, cfg.retry_backoff_max)

    def register_all(self):
        """Generator: eagerly register with every known server."""
        for server in sorted(self._server_ctl):
            yield from self._ensure_io(server)

    def _heartbeat_loop(self):
        try:
            yield from self._beat()
        except InterruptError:
            # _stop_heartbeat() retired us between beats.
            return

    def _beat(self):
        while not self.closed:
            self._hb_sleep = self.engine.timeout(
                self.config.heartbeat_interval)
            yield self._hb_sleep
            if self.closed:
                return
            if self._ft:
                # Fire-and-forget with a timeout: a dead server must not
                # stall the beats that keep live servers' tables warm.
                for server in sorted(self._io):
                    self._ctl_client(server).call(
                        "heartbeat",
                        {"kind": "heartbeat", "client_id": self.client_id,
                         "job": self.job},
                        size=_HEADER_BYTES, timeout=self.config.rpc_timeout)
                continue
            calls = [
                self._ctl_client(server).call(
                    "heartbeat",
                    {"kind": "heartbeat", "client_id": self.client_id,
                     "job": self.job},
                    size=_HEADER_BYTES)
                for server in sorted(self._io)
            ]
            if calls:
                yield self.engine.all_of(calls)

    def _stop_heartbeat(self) -> None:
        """Retire the heartbeat loop now instead of at its next wake.

        Interrupts the loop out of its inter-beat sleep and cancels the
        abandoned timer, so a long run with client churn doesn't carry
        one dead wake per departed client in the event queue.
        """
        proc = self._heartbeat_proc
        if proc is None:
            return
        self._heartbeat_proc = None
        sleep = self._hb_sleep
        self._hb_sleep = None
        if proc.is_alive and self.engine.active_process is not proc:
            proc.interrupt("client closed")
        if sleep is not None and not sleep.processed and not sleep.cancelled:
            sleep.cancel()

    def goodbye(self):
        """Generator: notify every registered server, stop heartbeats."""
        self.closed = True
        self._stop_heartbeat()
        if self._ft:
            # Best-effort farewell: a crashed server will expire us via
            # heartbeats instead; don't block shutdown on it.
            for server in sorted(self._io):
                call = self._ctl_client(server).call(
                    "goodbye",
                    {"kind": "goodbye", "client_id": self.client_id,
                     "job": self.job},
                    size=_HEADER_BYTES, timeout=self.config.rpc_timeout)
                try:
                    yield call
                except RpcTimeout:
                    self.stats.rpc_timeouts += 1
            return
        calls = [
            self._ctl_client(server).call(
                "goodbye",
                {"kind": "goodbye", "client_id": self.client_id,
                 "job": self.job},
                size=_HEADER_BYTES)
            for server in sorted(self._io)
        ]
        if calls:
            yield self.engine.all_of(calls)

    def disconnect(self) -> None:
        """Abrupt exit (fault injection): stop all traffic with no
        goodbye; servers notice via heartbeat expiry and clean up."""
        self.closed = True
        self._stop_heartbeat()
        self.stats.client_disconnects += 1

    # ------------------------------------------------------------------- I/O
    def _io_call(self, server: str, op: str, path: str, offset: int = 0,
                 size: int = 0, payload: Optional[bytes] = None,
                 wire: Optional[int] = None,
                 extra: Optional[Dict[str, Any]] = None):
        """Generator: one request/response against *server*."""
        body = {"op": op, "path": path, "offset": offset, "size": size,
                "payload": payload, "client_id": self.client_id,
                "job": self.job}
        if extra:
            body.update(extra)
        wire_size = _HEADER_BYTES + (wire if wire is not None else 0)
        if self._ft:
            body["req_id"] = self._next_req_id()
            resp = yield from self._request(server, body, wire_size)
        else:
            client = yield from self._ensure_io(server)
            resp = yield client.call("io", body, size=wire_size)
        self.ops_completed += 1
        return resp

    def _require_inode(self, path: str):
        """Generator: the inode of *path*; raises FileNotFound if absent.

        In fault-tolerant mode a miss is retried with backoff: the
        metadata may live on a crashed server and reappear once journal
        replay recovers it.
        """
        inode = self.fs.lookup(path)
        if inode is not None:
            return inode
        if not self._ft:
            raise FileNotFound(path)
        cfg = self.config
        delay = cfg.retry_backoff
        attempt = 0
        while inode is None:
            attempt += 1
            if 0 <= cfg.rpc_retries < attempt:
                self.stats.requests_failed += 1
                raise FileNotFound(path)
            self.stats.retries += 1
            yield self.engine.timeout(delay + self._jitter(delay))
            delay = min(delay * 2, cfg.retry_backoff_max)
            inode = self.fs.lookup(path)
        return inode

    def create(self, path: str):
        """Generator: create-or-open *path* (metadata server handles it)."""
        server = self.fs.metadata_server(path)
        return (yield from self._io_call(server, "open", path))

    def mkdir(self, path: str):
        """Generator: create directory *path* on its metadata server."""
        server = self.fs.metadata_server(path)
        return (yield from self._io_call(server, "mkdir", path))

    def stat(self, path: str):
        """Generator: stat *path* on its metadata server."""
        server = self.fs.metadata_server(path)
        return (yield from self._io_call(server, "stat", path))

    def readdir(self, path: str):
        """Generator: list directory *path* on its metadata server."""
        server = self.fs.metadata_server(path)
        return (yield from self._io_call(server, "readdir", path))

    def unlink(self, path: str):
        """Generator: remove *path* on its metadata server."""
        server = self.fs.metadata_server(path)
        return (yield from self._io_call(server, "unlink", path))

    def write(self, path: str, offset: int, size: int,
              payload: Optional[bytes] = None) -> int:
        """Generator: write *size* bytes at *offset*; returns bytes written.

        Without *payload* (the default for workloads) the write is
        accounted but bytes are not materialised; with *payload* real
        bytes go to the exact chunks (verification paths).
        """
        inode = yield from self._require_inode(path)
        down = set()
        if isinstance(inode.stripe, ErasureSpec):
            # Degraded write: skip down share servers instead of
            # retrying into the void — the skipped shares are exactly
            # what repair later rebuilds from the written ones.
            down = {s for s in inode.stripe.servers
                    if self.ctx.fabric.node_is_down(s)}
        if payload is not None:
            calls = []
            skipped = False
            for piece in map_range(inode.stripe, offset, size):
                if piece.server in down:
                    skipped = True
                    continue
                lo = piece.file_offset - offset
                calls.append((piece.server, piece.file_offset, piece.length,
                              payload[lo:lo + piece.length]))
            if skipped:
                self.stats.degraded_writes += 1
            total = 0
            pending = []
            if self._ft:
                for server, s_off, s_len, chunk in calls:
                    body = {"op": "write", "path": path, "offset": s_off,
                            "size": s_len, "payload": chunk,
                            "client_id": self.client_id, "job": self.job,
                            "req_id": self._next_req_id()}
                    pending.append(self.engine.process(self._request(
                        server, body, _HEADER_BYTES + s_len)))
            else:
                for server, s_off, s_len, chunk in calls:
                    client = yield from self._ensure_io(server)
                    pending.append(client.call(
                        "io",
                        {"op": "write", "path": path, "offset": s_off,
                         "size": s_len, "payload": chunk,
                         "client_id": self.client_id, "job": self.job},
                        size=_HEADER_BYTES + s_len))
            results = yield self.engine.all_of(pending)
            total = sum(r["bytes"] for r in results)
            if isinstance(inode.stripe, ErasureSpec):
                yield from self._parity_fanout(path, inode.stripe, offset,
                                               size, down=down,
                                               payload=payload)
            self.ops_completed += 1
            return total

        per_server = self._split(inode, offset, size)
        if down and any(server in down for server in per_server):
            per_server = {server: span
                          for server, span in per_server.items()
                          if server not in down}
            self.stats.degraded_writes += 1
        pending = []
        if self._ft:
            for server, (first_offset, nbytes) in sorted(per_server.items()):
                body = {"op": "write", "path": path, "offset": first_offset,
                        "size": nbytes, "payload": None,
                        "client_id": self.client_id, "job": self.job,
                        "req_id": self._next_req_id()}
                pending.append(self.engine.process(self._request(
                    server, body, _HEADER_BYTES + nbytes)))
        else:
            for server, (first_offset, nbytes) in sorted(per_server.items()):
                client = yield from self._ensure_io(server)
                pending.append(client.call(
                    "io",
                    {"op": "write", "path": path, "offset": first_offset,
                     "size": nbytes, "payload": None,
                     "client_id": self.client_id, "job": self.job},
                    size=_HEADER_BYTES + nbytes))
        results = yield self.engine.all_of(pending)
        # Accounting writes extend per-server; make sure the logical end
        # is visible even if this server's last slice ends earlier. (In
        # fault-tolerant mode re-resolve: recovery may have rebuilt the
        # inode object while our slices were retrying.)
        if self._ft:
            inode = self.fs.lookup(path) or inode
        if inode.size < offset + size:
            inode.size = offset + size
        if isinstance(inode.stripe, ErasureSpec):
            yield from self._parity_fanout(path, inode.stripe, offset, size,
                                           down=down)
        self.ops_completed += 1
        return sum(r["bytes"] for r in results)

    def _parity_fanout(self, path: str, spec: ErasureSpec, offset: int,
                       size: int, down=frozenset(),
                       payload: Optional[bytes] = None):
        """Generator: parity share updates of an erasure write — one
        share request per parity server, awaited after the data shares
        land (the serving side rebuilds exactly the dirtied groups).

        Down parity servers are skipped (degraded write). For payload
        writes that skipped a *data* server, the parity content is
        recomputed afterwards with the write overlaid, so surviving
        parity encodes the true bytes the dead server never received —
        that is what makes the skipped share reconstructible.
        """
        spans = parity_spans(spec, offset, size)
        skipped = any(server in down for server in spans)
        pending = []
        for server, (anchor, nbytes, groups) in sorted(spans.items()):
            if server in down:
                continue
            body = {"op": "write", "path": path, "offset": anchor,
                    "size": nbytes, "payload": None,
                    "client_id": self.client_id, "job": self.job,
                    "share": True, "groups": groups}
            if self._ft:
                body["req_id"] = self._next_req_id()
                pending.append(self.engine.process(self._request(
                    server, body, _HEADER_BYTES + nbytes)))
            else:
                client = yield from self._ensure_io(server)
                pending.append(client.call("io", body,
                                           size=_HEADER_BYTES + nbytes))
        if skipped:
            self.stats.degraded_writes += 1
        if pending:
            yield self.engine.all_of(pending)
        if payload is not None and down:
            for group, _ in group_range(spec, offset, size):
                self.fs.rebuild_parity(path, group,
                                       overlay=(offset, payload),
                                       skip_servers=down)

    def read(self, path: str, offset: int, size: int) -> int:
        """Generator: read up to *size* bytes at *offset*; returns bytes read."""
        inode = yield from self._require_inode(path)
        avail = max(0, min(size, inode.size - offset))
        if avail == 0:
            return 0
        per_server = self._split(inode, offset, avail)
        if isinstance(inode.stripe, ErasureSpec):
            down = {s for s in sorted(per_server)
                    if self.ctx.fabric.node_is_down(s)}
            if down:
                return (yield from self._degraded_read(
                    path, inode, offset, avail, down))
        pending = []
        if self._ft:
            for server, (first_offset, nbytes) in sorted(per_server.items()):
                body = {"op": "read", "path": path, "offset": first_offset,
                        "size": nbytes, "payload": None,
                        "client_id": self.client_id, "job": self.job,
                        "req_id": self._next_req_id()}
                pending.append(self.engine.process(self._request(
                    server, body, _HEADER_BYTES)))
        else:
            for server, (first_offset, nbytes) in sorted(per_server.items()):
                client = yield from self._ensure_io(server)
                pending.append(client.call(
                    "io",
                    {"op": "read", "path": path, "offset": first_offset,
                     "size": nbytes, "payload": None,
                     "client_id": self.client_id, "job": self.job},
                    size=_HEADER_BYTES))
        results = yield self.engine.all_of(pending)
        self.ops_completed += 1
        return sum(r["bytes"] for r in results)

    def _degraded_read(self, path: str, inode, offset: int, avail: int,
                       down: set) -> int:
        """Generator: erasure degraded read around *down* share servers.

        Pieces on up servers are read normally; for every stripe group
        with a piece stranded on a down server the client fetches ``k``
        full shares from reachable servers and reconstructs (the read
        amplification is the price of degraded mode). Groups with fewer
        than ``k`` reachable shares are accounted as lost — zero-filled,
        never an exception. Returns bytes read (``avail`` minus loss).
        """
        spec = inode.stripe
        self.stats.degraded_reads += 1
        per_server = self._split(inode, offset, avail)
        affected: Dict[int, int] = {}
        for piece in map_range(spec, offset, avail):
            if piece.server in down:
                group = piece.chunk_index // spec.k
                affected[group] = affected.get(group, 0) + piece.length
        lost = 0
        share_reads: Dict[str, Tuple[int, int]] = {}
        for group in sorted(affected):
            reachable = [s for s in range(spec.n)
                         if spec.server_of_share(group, s) not in down]
            if len(reachable) < spec.k:
                self.stats.data_lost_groups += 1
                lost += affected[group]
                continue
            self.stats.shares_reconstructed += sum(
                1 for s in range(spec.k)
                if spec.server_of_share(group, s) in down)
            anchor = group * spec.group_bytes
            for s in reachable[:spec.k]:
                server = spec.server_of_share(group, s)
                first, nbytes = share_reads.get(server, (anchor, 0))
                share_reads[server] = (min(first, anchor),
                                       nbytes + spec.stripe_size)
        plan = [(server, span, False)
                for server, span in sorted(per_server.items())
                if server not in down]
        plan += [(server, span, True)
                 for server, span in sorted(share_reads.items())]
        pending = []
        for server, (first_offset, nbytes), share in plan:
            body = {"op": "read", "path": path, "offset": first_offset,
                    "size": nbytes, "payload": None,
                    "client_id": self.client_id, "job": self.job}
            if share:
                body["share"] = True
            if self._ft:
                body["req_id"] = self._next_req_id()
                pending.append(self.engine.process(self._request(
                    server, body, _HEADER_BYTES)))
            else:
                client = yield from self._ensure_io(server)
                pending.append(client.call("io", body, size=_HEADER_BYTES))
        if pending:
            yield self.engine.all_of(pending)
        self.ops_completed += 1
        return avail - lost

    def write_read_cycle(self, path: str, size: int) -> int:
        """Generator: one §5.3.1 benchmark cycle (write then read back)."""
        yield from self.write(path, 0, size)
        return (yield from self.read(path, 0, size))

    # --------------------------------------------------------------- routing
    @staticmethod
    def _split(inode, offset: int, size: int) -> Dict[str, Tuple[int, int]]:
        """Per-server ``(first_offset, total_bytes)`` of a byte range
        (memoised on the stripe spec — see :func:`server_spans`)."""
        return server_spans(inode.stripe, offset, size)
