"""The I/O request: one record from the client's call to the worker's reply.

Every request embeds the job metadata (job id, user, group, size) that
ThemisIO's policies key on (§1: "we embed job-related information, such
as job id, user id, and job size, in the I/O request"). The client
builds and validates the record, it travels as the body of an ``"io"``
RPC of :attr:`IORequest.wire_bytes` bytes, the server stamps ``rpc`` /
``arrival`` on what it receives and queues it, and the worker serves it
and answers ``{"ok", "bytes"[, "error"]}`` on ``rpc``. This module is
the only place that names that wire format.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Optional

from ..core.jobinfo import JobInfo
from ..errors import InvalidArgument

__all__ = ["OpType", "IORequest", "META_COST_BYTES", "HEADER_BYTES"]

#: Service cost (in byte-equivalents) charged for a metadata operation by
#: budget-based schedulers (GIFT/TBF); roughly one small device page.
META_COST_BYTES = 4096

#: Fixed wire bytes of a request header (op, path, job metadata, offsets).
HEADER_BYTES = 64


class OpType(Enum):
    """The I/O operation kinds a request can carry."""
    WRITE = "write"
    READ = "read"
    OPEN = "open"       # create-or-open
    STAT = "stat"
    UNLINK = "unlink"

    def __init__(self, value: str):
        #: does the op move file data (WRITE / READ)? A member field,
        #: read several times per served request.
        self.is_data = value in ("write", "read")


class IORequest:
    """One single-server slice of a client op.

    One is built per slice, so the class is slotted and its fields are
    in the order the client passes them (like :class:`~repro.net.Message`).
    Nothing writes ``op``, ``size`` or ``job`` after construction
    (:meth:`retry` builds a new record), so ``job_id`` and ``cost``,
    which the queues read per request, are fields worked out here.
    """

    __slots__ = ("op", "job", "path", "offset", "size", "client_id",
                 "payload", "req_id",
                 "rpc", "arrival", "error", "job_id", "cost")

    def __init__(self, op: OpType, job: JobInfo, path: str, offset: int = 0,
                 size: int = 0, client_id: str = "",
                 payload: Optional[bytes] = None,
                 req_id: Optional[str] = None):
        if size < 0 or offset < 0:
            raise InvalidArgument(f"negative offset/size: {offset}/{size}")
        if payload is not None and len(payload) != size:
            raise InvalidArgument(
                f"payload length {len(payload)} != size {size}")
        if op is OpType.WRITE and size == 0:
            raise InvalidArgument("zero-byte write request")
        self.op = op
        self.job = job
        self.path = path
        self.offset = offset
        self.size = size                # payload bytes for data ops
        self.client_id = client_id
        self.payload = payload          # real bytes (verification paths only)
        #: client-issued idempotency id ("{client_id}#{seq}"), the same
        #: on every retry so the server can deduplicate. None from a
        #: client that never times out, and so never sends twice.
        self.req_id = req_id
        #: RpcRequest to reply on; the worker drops it after replying
        #: (the RPC's body points back here).
        self.rpc: Any = None
        self.arrival = 0.0
        #: failure the worker hit applying this request (reported in the
        #: reply as ok=False); None on success.
        self.error: Optional[Exception] = None
        self.job_id: int = job.job_id
        #: service cost in byte-equivalents (scheduler budgeting unit).
        self.cost = float(size) if op.is_data else float(META_COST_BYTES)

    def retry(self) -> "IORequest":
        """A fresh copy to send again under the same ``req_id``. The
        server stamps what it receives, and a worker that straddled a
        crash may still hold the first copy."""
        return IORequest(self.op, self.job, self.path, self.offset, self.size,
                         self.client_id, self.payload, self.req_id)

    @property
    def wire_bytes(self) -> int:
        """On-wire size of the request message: writes carry their data."""
        return HEADER_BYTES + (self.size if self.op is OpType.WRITE else 0)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<IORequest {self.req_id or ''} {self.op.value} "
                f"job={self.job_id} {self.path}@{self.offset}+{self.size}>")
