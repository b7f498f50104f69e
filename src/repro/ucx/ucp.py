"""UCX-like communication layer (§4.2 of the paper).

Mirrors the structure ThemisIO builds on UCX: each node owns a
:class:`UCPContext`; communication happens through named
:class:`UCPWorker` objects (a worker represents a local communication
resource plus its progress engine). Servers keep two worker pools — one
for client↔server traffic and one for server↔server synchronisation — and
map each connected client to a worker; a worker may be shared by many
clients. Mappings are destroyed when a client exits or its job goes
inactive, exactly as §4.2 describes.

Addressing: a worker's address is ``(node_name, worker_name)``. The
context is its node's one receiver on the fabric. An arrival only joins
the context's inbox: UCX forbids progressing transfers from a receive
callback, so the context's *progress call* hands the inbox on one
message per zero-delay call entry, each to the one handler of the worker
it names (the :class:`~repro.ucx.rpc.RpcServer` or
:class:`~repro.ucx.rpc.RpcClient` that owns the worker).
"""

from __future__ import annotations

from collections import deque
from typing import (TYPE_CHECKING, Callable, Deque, Dict, List, Optional,
                    Tuple)

from ..errors import UCXError
from ..net.fabric import Fabric
from ..net.message import Message

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Engine

__all__ = ["UCPContext", "UCPWorker", "WorkerPool", "Address"]

Address = Tuple[str, str]  # (node_name, worker_name)


class UCPContext:
    """Per-node UCX context: the node's receiver, owning its workers.

    Arrived messages wait in the inbox for the progress call, which
    hands **one** to its worker and, after the handler returns, re-arms
    itself while the inbox is non-empty — the tie order of a process
    pulling from a ``Store``, without the process. A message for a
    worker that does not exist (never made, or closed), or that the
    progress call reaches while the node is down, is dropped and
    counted.
    """

    def __init__(self, engine: "Engine", fabric: Fabric, node_name: str):
        self.engine = engine
        self.fabric = fabric
        self.node_name = node_name
        self.workers: Dict[str, UCPWorker] = {}
        self.dropped_count = 0
        self._inbox: Deque[Message] = deque()
        #: True while a progress call is scheduled or running.
        self._progress_pending = False
        #: the progress call entry, built once (Engine.schedule_call).
        self._progress_call = (self._progress, None)
        #: the fabric's crashed-node set (the server's crash flag).
        self._down = fabric.down
        fabric.add_node(node_name, self._arrive)

    def create_worker(self, name: str) -> "UCPWorker":
        """Create a named worker on this node (names unique per node)."""
        if name in self.workers:
            raise UCXError(f"worker {name!r} already exists on {self.node_name!r}")
        worker = UCPWorker(self, name)
        self.workers[name] = worker
        return worker

    def _arrive(self, message: Message) -> None:
        """Queue an arrived *message*; arm the progress call if idle."""
        self._inbox.append(message)
        if not self._progress_pending:
            self._arm()

    def _arm(self) -> None:
        self._progress_pending = True
        engine = self.engine
        engine.schedule_call(engine.now, self._progress_call)

    def _progress(self, _arg: None) -> None:
        message = self._inbox.popleft()
        worker = self.workers.get(message.worker)
        if worker is None or self.node_name in self._down:
            self.dropped_count += 1
        else:
            worker.handler(message)
        # Re-armed only now: what the handler scheduled goes first.
        if self._inbox:
            self._arm()
        else:
            self._progress_pending = False


class UCPWorker:
    """A UCP worker: sends to worker addresses, and passes every message
    it receives to its one handler."""

    def __init__(self, context: UCPContext, name: str):
        self.context = context
        self.name = name
        self.closed = False
        #: the callable this worker's messages go to, installed by the
        #: RpcServer or RpcClient that owns the worker.
        self.handler: Optional[Callable[[Message], None]] = None

    @property
    def address(self) -> Address:
        return (self.context.node_name, self.name)

    def send(self, address: Address, payload, size: int = 0) -> None:
        """Send *payload* (*size* bytes on the wire) to the worker at
        *address* (:meth:`~repro.net.fabric.Fabric.send`: nothing to
        wait on; its answer, if any, comes to this worker's handler)."""
        if self.closed:
            raise UCXError(f"worker {self.name!r} is closed")
        context = self.context
        node, worker_name = address
        context.fabric.send(Message(
            context.node_name, node, payload, size, worker_name))

    def close(self) -> None:
        """Destroy the worker; subsequent traffic to it is dropped."""
        self.closed = True
        self.context.workers.pop(self.name, None)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<UCPWorker {self.context.node_name}/{self.name}>"


class WorkerPool:
    """Server-side pool of UCP workers shared among clients (§4.2).

    ``assign(client_id)`` returns the worker mapped to that client,
    creating the mapping round-robin on first contact; ``release``
    destroys the mapping (client exit or job inactivation). The workers
    themselves are persistent for the lifetime of the server.
    """

    def __init__(self, context: UCPContext, prefix: str, n_workers: int):
        if n_workers < 1:
            raise UCXError("pool needs at least one worker")
        self.workers = [context.create_worker(f"{prefix}{i}") for i in range(n_workers)]
        self._mapping: Dict[str, UCPWorker] = {}
        self._next = 0

    def assign(self, client_id: str) -> UCPWorker:
        """The worker mapped to *client_id*, created round-robin on first use."""
        worker = self._mapping.get(client_id)
        if worker is None:
            worker = self.workers[self._next % len(self.workers)]
            self._next += 1
            self._mapping[client_id] = worker
        return worker

    def release(self, client_id: str) -> bool:
        """Destroy the client's mapping entry; True if one existed."""
        return self._mapping.pop(client_id, None) is not None

    def release_many(self, client_ids) -> int:
        """Release several client mappings; returns how many existed."""
        return sum(self.release(cid) for cid in list(client_ids))

    @property
    def mapped_clients(self) -> List[str]:
        return list(self._mapping)
