"""Server I/O workers (§4.1).

"Each worker pops one token at a time and an I/O request identified by
the token, then processes the I/O request. There can be multiple
workers for higher I/O throughput."

The token pop is inside the scheduler's ``dequeue``; the worker charges
the request's service time against its slice of the device bandwidth,
applies the file-system operation, replies to the client, and records
the completion.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..errors import FileNotFound, FSError
from ..fs.striping import map_range
from ..sim.process import Event
from .request import IORequest, OpType

if TYPE_CHECKING:  # pragma: no cover
    from .server import Server

__all__ = ["IOWorker"]

#: Retry delay when a throttling scheduler blocks a backlog and cannot
#: name a wake-up time (defensive; normal paths use next_eligible_time).
_BLOCKED_RETRY = 1e-3


class IOWorker:
    """One service loop; ``n_workers`` of these share the device."""

    def __init__(self, server: "Server", index: int):
        self.server = server
        self.index = index
        self.served_requests = 0
        self.served_bytes = 0
        self.idle_cycles = 0
        self.lock_waits = 0
        self.throttle_waits = 0  # parks with backlog but no wake time
        self.locked_ino = None   # range-locked inode during a write
        self.locked_meta = None  # metadata-locked parent during namespace ops
        self.process = server.engine.process(self._loop())

    # ------------------------------------------------------------------ loop
    def _loop(self):
        server = self.server
        engine = server.engine
        scheduler = server.scheduler
        while True:
            if server.crashed:
                yield server.restart_event()
                continue
            request = scheduler.dequeue(engine.now)
            if request is None:
                if scheduler.backlog == 0:
                    yield server.work_event()
                else:
                    # Throttled (GIFT budget / TBF tokens): idle cycle.
                    self.idle_cycles += 1
                    wake = scheduler.next_eligible_time(engine.now)
                    if wake == float("inf"):
                        # Backlogged but the scheduler cannot name a
                        # wake-up time: park until the next request
                        # arrives, which wakes up to `backlog` parked
                        # workers (a crash or restart wakes all).
                        # Nothing else notifies — a token refresh does
                        # not — so a scheduler that blocks a backlog
                        # must name a finite next_eligible_time.
                        self.throttle_waits += 1
                        yield server.work_event()
                    else:
                        yield engine.timeout(
                            max(wake - engine.now, _BLOCKED_RETRY))
                continue
            # A crash between here and the reply wipes the server's
            # state; the epoch check makes the worker drop the request
            # on the floor (no reply — the client's retry re-executes).
            epoch = server.crash_epoch
            yield from self._acquire_locks(request)
            if server.crashed or server.crash_epoch != epoch:
                self._abandon(request)
                continue
            yield engine.timeout(server.service_time(request))
            if server.crashed or server.crash_epoch != epoch:
                self._abandon(request)
                continue
            moved = self._apply(request)
            self._release_locks(request)
            self._complete(request, moved)

    def _abandon(self, request: IORequest) -> None:
        """Drop a request whose service straddled a crash (no reply)."""
        self._release_locks(request)
        self.server.fault_stats.requests_dropped_in_crash += 1

    # --------------------------------------------------------------- locking
    def _lock_node(self):
        return self.server.fs.nodes[self.server.name]

    def _acquire_locks(self, request: IORequest):
        """Enforce §4.3's concurrency rules before servicing.

        Reads take no lock; writes take byte-range write locks
        (conflicting ranges serialise); namespace updates take the
        parent directory's metadata lock. A conflicting worker parks on
        a waiter event the lock table triggers at the next release on
        that inode — no polling, so contention adds no timer events to
        the engine heap and the lock is acquired the instant it frees.
        """
        engine = self.server.engine
        node = self._lock_node()
        if request.op is OpType.WRITE:
            inode = self.server.fs.lookup(request.path)
            if inode is None:
                return
            self.locked_ino = inode.ino
            while not node.range_locks.try_lock_write(
                    inode.ino, request.offset, request.size, self):
                self.lock_waits += 1
                released = Event(engine)
                node.range_locks.wait(inode.ino, released, request.offset,
                                      request.size, owner=self)
                yield released
        elif request.op in (OpType.OPEN, OpType.UNLINK, OpType.MKDIR):
            parent = self.server.fs.lookup(
                request.path.rsplit("/", 1)[0] or "/")
            if parent is None:
                return
            self.locked_meta = parent.ino
            while not node.meta_locks.try_lock(parent.ino, self):
                self.lock_waits += 1
                released = Event(engine)
                node.meta_locks.wait(parent.ino, released, owner=self)
                yield released

    def _release_locks(self, request: IORequest) -> None:
        node = self._lock_node()
        if self.locked_ino is not None:
            node.range_locks.unlock_write(self.locked_ino, self)
            self.locked_ino = None
        if self.locked_meta is not None:
            # unlock_if_held: a crash may have wiped the table (and our
            # ownership) between acquire and release.
            node.meta_locks.unlock_if_held(self.locked_meta, self)
            self.locked_meta = None

    # --------------------------------------------------------------- execute
    def _apply(self, request: IORequest) -> int:
        """Run the FS operation; returns data bytes moved."""
        fs = self.server.fs
        path = request.path
        op = request.op
        hook = self.server.storage_fault
        if hook is not None:
            exc = hook(request, self.server.engine.now)
            if exc is not None:
                # Injected device error (e.g. EIO): fail the op without
                # touching the FS; the reply carries ok=False.
                self.server.record_error(request, exc)
                request.error = exc
                self.server.fault_stats.storage_errors += 1
                return 0
        try:
            if request.share and op.is_data:
                return self._apply_share(request)
            if op is OpType.WRITE:
                if request.payload is not None:
                    return self._write_exact(request)
                end = request.offset + request.size
                fs.write_accounting(path, end, 0)
                return request.size
            if op is OpType.READ:
                if request.payload is not None:  # pragma: no cover - reads carry none
                    raise FSError("read requests carry no payload")
                return fs.read_accounting(path, request.offset, request.size)
            if op is OpType.OPEN:
                if not fs.exists(path):
                    fs.create(path, uid=request.job.job_id)
                return 0
            if op is OpType.STAT:
                fs.stat(path)
                return 0
            if op is OpType.READDIR:
                fs.readdir(path)
                return 0
            if op is OpType.UNLINK:
                if fs.exists(path):
                    fs.unlink(path)
                return 0
            if op is OpType.MKDIR:
                if not fs.exists(path):
                    fs.mkdir(path)
                return 0
        except FileNotFound as exc:
            if op.is_data:
                self.server.record_error(request, FileNotFound(path))
                request.error = exc
            # Metadata miss (e.g. iops_stat's random names): a normal
            # ENOENT outcome, served and answered like any other op.
            return 0
        except FSError as exc:
            self.server.record_error(request, exc)
            request.error = exc
            return 0
        raise FSError(f"unhandled op {op}")  # pragma: no cover

    def _apply_share(self, request: IORequest) -> int:
        """Erasure share traffic: charge device bytes with no logical
        file-range clipping. A share WRITE also recomputes this server's
        parity shares for the dirtied groups (a no-op for hole groups,
        so accounting-mode workloads pay only the bandwidth)."""
        fs = self.server.fs
        if request.op is OpType.WRITE and request.groups:
            for group in request.groups:
                fs.rebuild_parity(request.path, group,
                                  only_server=self.server.name)
        return request.size

    def _write_exact(self, request: IORequest) -> int:
        """Verification path: write real bytes to this server's chunks only."""
        fs = self.server.fs
        inode = fs.lookup(request.path)
        if inode is None:
            self.server.record_error(request, FSError(request.path))
            return 0
        written = 0
        node = fs.nodes[self.server.name]
        for piece in map_range(inode.stripe, request.offset, request.size):
            if piece.server != self.server.name:
                continue
            lo = piece.file_offset - request.offset
            data = request.payload[lo:lo + piece.length]
            node.write_chunk(inode.ino, piece.chunk_index, piece.chunk_offset,
                             data)
            written += piece.length
        end = request.offset + request.size
        if end > inode.size:
            # Route the size advance through the FS so a journaled FS
            # logs the extension (durability of acknowledged writes).
            fs.write_accounting(request.path, end, 0)
        return written

    def _complete(self, request: IORequest, moved: int) -> None:
        server = self.server
        data_bytes = moved if request.op.is_data else 0
        self.served_requests += 1
        self.served_bytes += data_bytes
        server.sampler.record(server.engine.now, request.job_id,
                              data_bytes, request.op.value)
        if (server.restarted_at is not None
                and server.first_completion_after_restart is None):
            server.first_completion_after_restart = server.engine.now
        # The RPC's body is this request: drop the back-pointer as it is
        # answered, so the pair is freed by reference count.
        rpc, request.rpc = request.rpc, None
        resp_size = moved if request.op is OpType.READ else 0
        if request.error is None:
            body = {"ok": True, "bytes": moved}
        else:
            body = {"ok": False, "bytes": moved,
                    "error": getattr(request.error, "errno_name", "EIO")}
            server.fault_stats.error_replies += 1
        rpc.reply(body, size=resp_size)
        if request.req_id is not None:
            if request.error is None:
                server.cache_reply(request.req_id, body, resp_size)
            else:
                # Failed requests were not applied: let a retry of the
                # same id re-execute instead of replaying EIO.
                server.forget_request(request.req_id)
