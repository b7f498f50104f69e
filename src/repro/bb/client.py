"""The ThemisIO client (§4.1, §4.2).

Runs with the application on a compute node. It gathers job metadata
(job id, user, group, size), registers with each server it talks to
(receiving the UCP pool worker the server assigned to it), forwards I/O
requests, sends periodic heartbeats, and notifies servers on exit so
they can destroy the worker mapping entries.

Data placement is deterministic (consistent hashing + stripe records),
so the client computes each operation's target servers itself and splits
multi-server operations into per-server requests, awaiting all slices.
Every slice is one :class:`~repro.bb.request.IORequest`, built here and
sent one way: :meth:`Client._request` delivers it and awaits the reply,
inside the calling stream when an operation has one slice, in a
process per slice when it has more. Heartbeats are never awaited;
``goodbye`` sends to every server, then awaits each reply.
``ClientConfig.rpc_timeout`` changes only what a lost message does, so
a timeout that never fires changes nothing simulated. A positive one
brings what a call that can fail needs: request ids, retry of an error
reply, retry of a metadata miss through a crash, and re-resolving the
inode after recovery.

All operations are simulation generators: drive them with
``yield from client.write(...)`` inside a process, or wrap with
``engine.process(...)``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import TYPE_CHECKING, Dict, Optional

from ..core.jobinfo import JobInfo
from ..errors import ConfigError, FileNotFound, InterruptError, RpcTimeout
from ..fs.filesystem import ThemisFS
from ..fs.striping import map_range, server_spans
from ..metrics.faultstats import FaultStats
from ..net.fabric import Fabric
from ..sim.process import Event
from ..ucx import Address, RpcClient, UCPContext
from .request import HEADER_BYTES, IORequest, OpType

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Engine

__all__ = ["Client", "ClientConfig"]

#: the bytes a reply reports (summed over an operation's slices).
_reply_bytes = itemgetter("bytes")


@dataclass
class ClientConfig:
    heartbeat_interval: float = 0.5
    #: per-RPC timeout in seconds; 0 = no timer: a call waits forever.
    #: A timeout that never fires changes nothing simulated.
    rpc_timeout: float = 0.0
    #: retry budget per logical request; negative = retry forever.
    rpc_retries: int = -1
    #: first retry backoff in seconds (doubles per retry, plus jitter).
    retry_backoff: float = 0.05
    #: backoff growth cap in seconds.
    retry_backoff_max: float = 1.0

    def __post_init__(self):
        # Negated tests: NaN, which compares false both ways, fails them.
        if not self.heartbeat_interval > 0:
            raise ConfigError("heartbeat_interval must be positive")
        if not self.rpc_timeout >= 0:
            raise ConfigError("rpc_timeout must be >= 0")
        if not 0 < self.retry_backoff <= self.retry_backoff_max:
            raise ConfigError(
                "need 0 < retry_backoff <= retry_backoff_max")


class Client:
    """One application process-group's connection to the burst buffer."""

    def __init__(self, engine: "Engine", fabric: Fabric, node_name: str,
                 client_id: str, job: JobInfo, fs: ThemisFS,
                 server_ctl: Dict[str, Address], config: ClientConfig,
                 fault_stats: FaultStats, rng):
        self.engine = engine
        self.client_id = client_id
        self.job = job
        self.fs = fs
        self.config = config
        self.ctx = UCPContext(engine, fabric, node_name)
        self._server_ctl = dict(server_ctl)   # server name -> ctl address
        self._ctl: Dict[str, RpcClient] = {}
        self._io: Dict[str, RpcClient] = {}
        self._io_pending: Dict[str, object] = {}  # server -> in-progress Event
        self._heartbeat_proc = None
        self._hb_sleep: Optional[Event] = None  # pending inter-beat timer
        self.closed = False
        #: do calls time out? (then: retry + failover + request ids)
        self._ft = config.rpc_timeout > 0
        self._rng = rng  # backoff jitter stream (None without timeouts)
        self.stats = fault_stats
        self._req_seq = itertools.count(1)

    # ------------------------------------------------------------ connection
    def _ctl_client(self, server: str) -> RpcClient:
        client = self._ctl.get(server)
        if client is None:
            worker = self.ctx.create_worker(f"ctl-{server}")
            client = RpcClient(worker, self._server_ctl[server])
            self._ctl[server] = client
        return client

    def _control(self, server: str, kind: str) -> Event:
        """Send one register / heartbeat / goodbye; the call's event."""
        return self._ctl_client(server).call(
            kind, {"kind": kind, "client_id": self.client_id,
                   "job": self.job},
            size=HEADER_BYTES, timeout=self.config.rpc_timeout or None)

    def _backoff(self):
        """One timer per retry the budget allows: exponentially spaced,
        plus up to 10% jitter from the client's rng stream, which keeps
        retry storms de-synchronised while staying deterministic per
        seed. Running out counts the request as failed."""
        cfg = self.config
        delay = cfg.retry_backoff
        attempt = 0
        while cfg.rpc_retries < 0 or attempt < cfg.rpc_retries:
            attempt += 1
            self.stats.retries += 1
            yield self.engine.timeout(
                delay + float(self._rng.random()) * delay * 0.1)
            delay = min(delay * 2, cfg.retry_backoff_max)
        self.stats.requests_failed += 1

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
            resp = yield from self._register(server)
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

    def _register(self, server: str):
        """Generator: register with *server*, retrying through outages."""
        pauses = self._backoff()
        while True:
            try:
                return (yield self._control(server, "register"))
            except RpcTimeout:
                self.stats.rpc_timeouts += 1
                pause = next(pauses, None)
                if pause is None:
                    raise
            yield pause

    def _failover(self, server: str, client: RpcClient) -> None:
        """Tear down the IO connection *client* to *server*; the next
        request re-registers (the server may assign a different pool
        worker). All of a client's streams share that connection, so a
        timeout that comes in after another stream already failed over
        must leave the fresh connection alone."""
        if self._io.get(server) is client:
            del self._io[server]
            self.stats.failovers += 1
            client.worker.close()

    def _new(self, op: OpType, path: str, offset: int = 0, size: int = 0,
             payload: Optional[bytes] = None) -> IORequest:
        """This client's request record for one single-server slice."""
        req_id = (f"{self.client_id}#{next(self._req_seq)}" if self._ft
                  else None)
        return IORequest(op, self.job, path, offset, size, self.client_id,
                         payload, req_id)

    def _request(self, server: str, request: IORequest):
        """Generator: deliver *request* and return the reply. With
        timeouts on the request is idempotent (its ``req_id`` lets the
        server deduplicate a retry that raced a slow original) and is
        retried with backoff through timeouts, error replies and server
        restarts."""
        timeout = self.config.rpc_timeout or None
        pauses = None  # the backoff, made at the first failure
        while True:
            client = self._io.get(server)
            if client is None:
                client = yield from self._ensure_io(server)
            try:
                resp = yield client.call("io", request,
                                         size=request.wire_bytes,
                                         timeout=timeout)
            except RpcTimeout:
                self.stats.rpc_timeouts += 1
                self._failover(server, client)
                last_error = "timeout"
            else:
                if not self._ft or resp.get("ok", True):
                    return resp
                last_error = resp.get("error", "EIO")
            if pauses is None:
                pauses = self._backoff()
            pause = next(pauses, None)
            if pause is None:
                raise RpcTimeout(
                    f"request to {server} abandoned after "
                    f"{self.config.rpc_retries + 1} attempts "
                    f"(last error: {last_error})")
            yield pause
            request = request.retry()

    def _gather(self, slices):
        """Generator: send every ``(server, request)`` of *slices* in
        order, await them all, return their replies. One slice is
        awaited inside the calling stream (:meth:`_request`, as
        :meth:`_io_call` does); two or more each run it in a defused
        ``Process`` under one ``AllOf``, which raises the first failure
        into the stream: a second abandoned slice, which the ``AllOf``
        no longer listens to, must not crash the run."""
        if len(slices) == 1:
            ((server, request),) = slices
            return [(yield from self._request(server, request))]
        pending = []
        for server, request in slices:
            proc = self.engine.process(self._request(server, request))
            proc.defuse()
            pending.append(proc)
        return (yield self.engine.all_of(pending))

    def register_all(self):
        """Generator: eagerly register with every known server."""
        for server in sorted(self._server_ctl):
            yield from self._ensure_io(server)

    def _heartbeat_loop(self):
        try:
            while not self.closed:
                self._hb_sleep = self.engine.timeout(
                    self.config.heartbeat_interval)
                yield self._hb_sleep
                if self.closed:
                    return
                # Fire-and-forget: a dead server must not stall the
                # beats that keep live servers' tables warm.
                for server in sorted(self._io):
                    self._control(server, "heartbeat")
        except InterruptError:
            # _stop_heartbeat() retired us between beats.
            return

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
        # Best-effort farewell: a crashed server will expire us via
        # heartbeats instead, so a timeout only counts.
        calls = [self._control(server, "goodbye")
                 for server in sorted(self._io)]
        for call in calls:
            try:
                yield call
            except RpcTimeout:
                self.stats.rpc_timeouts += 1

    def disconnect(self) -> None:
        """Abrupt exit (fault injection): stop all traffic with no
        goodbye; servers notice via heartbeat expiry and clean up."""
        self.closed = True
        self._stop_heartbeat()
        self.stats.client_disconnects += 1

    # ------------------------------------------------------------------- I/O
    def _io_call(self, server: str, op: OpType, path: str, offset: int = 0,
                 size: int = 0):
        """Generator: one request/response against *server*."""
        return (yield from self._request(
            server, self._new(op, path, offset, size)))

    def _require_inode(self, path: str):
        """Generator: the inode of *path*; raises FileNotFound if absent.

        With timeouts on a miss is retried with backoff: the metadata
        may live on a crashed server and reappear once journal replay
        recovers it.
        """
        inode = self.fs.lookup(path)
        if inode is None and self._ft:
            for pause in self._backoff():
                yield pause
                inode = self.fs.lookup(path)
                if inode is not None:
                    break
        if inode is None:
            raise FileNotFound(path)
        return inode

    def create(self, path: str):
        """Generator: create-or-open *path* (metadata server handles it)."""
        server = self.fs.metadata_server(path)
        return (yield from self._io_call(server, OpType.OPEN, path))

    def stat(self, path: str):
        """Generator: stat *path* on its metadata server."""
        server = self.fs.metadata_server(path)
        return (yield from self._io_call(server, OpType.STAT, path))

    def unlink(self, path: str):
        """Generator: remove *path* on its metadata server."""
        server = self.fs.metadata_server(path)
        return (yield from self._io_call(server, OpType.UNLINK, path))

    def write(self, path: str, offset: int, size: int,
              payload: Optional[bytes] = None) -> int:
        """Generator: write *size* bytes at *offset*; returns bytes written.

        Without *payload* (the default for workloads) the write is
        accounted but bytes are not materialised — one request per
        server; with *payload* real bytes go to the exact chunks, one
        request per chunk (verification paths).
        """
        inode = self.fs.lookup(path)
        if inode is None:
            inode = yield from self._require_inode(path)
        if payload is not None:
            slices = [
                (piece.server, self._new(
                    OpType.WRITE, path, piece.file_offset, piece.length,
                    payload[piece.file_offset - offset:
                            piece.file_offset - offset + piece.length]))
                for piece in map_range(inode.stripe, offset, size)]
        else:
            slices = [(server, self._new(OpType.WRITE, path, first, nbytes))
                      for server, (first, nbytes) in sorted(
                          server_spans(inode.stripe, offset, size).items())]
        results = yield from self._gather(slices)
        if payload is None:
            # Accounting writes extend per-server; make sure the logical
            # end is visible even if this server's last slice ends
            # earlier. (With timeouts on re-resolve: recovery may have
            # rebuilt the inode object while our slices were retrying.)
            if self._ft:
                inode = self.fs.lookup(path) or inode
            if inode.size < offset + size:
                inode.size = offset + size
        return sum(map(_reply_bytes, results))

    def read(self, path: str, offset: int, size: int) -> int:
        """Generator: read up to *size* bytes at *offset*; returns bytes read."""
        inode = self.fs.lookup(path)
        if inode is None:
            inode = yield from self._require_inode(path)
        avail = max(0, min(size, inode.size - offset))
        if avail == 0:
            return 0
        results = yield from self._gather(
            [(server, self._new(OpType.READ, path, first, nbytes))
             for server, (first, nbytes) in sorted(
                 server_spans(inode.stripe, offset, avail).items())])
        return sum(map(_reply_bytes, results))

    def write_read_cycle(self, path: str, size: int) -> int:
        """Generator: one §5.3.1 benchmark cycle (write then read back)."""
        yield from self.write(path, 0, size)
        return (yield from self.read(path, 0, size))
