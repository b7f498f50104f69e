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
context is its node's receiver on the fabric: the node's progress event
hands it one arrived message at a time (never inside the arrival
callback — UCX forbids progressing transfers from a receive callback),
and it routes each to a worker; workers deliver by *tag* to the
registered push handler, queueing what arrives before one is registered.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Tuple

from ..errors import UCXError
from ..net.fabric import Fabric
from ..net.message import Message
from ..sim.process import Event

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Engine

__all__ = ["UCPContext", "UCPWorker", "Endpoint", "WorkerPool", "Address"]

Address = Tuple[str, str]  # (node_name, worker_name)


class UCPContext:
    """Per-node UCX context: owns workers and dispatches inbound messages."""

    def __init__(self, engine: "Engine", fabric: Fabric, node_name: str):
        self.engine = engine
        self.fabric = fabric
        self.node_name = node_name
        if not fabric.has_node(node_name):
            fabric.add_node(node_name)
        self.workers: Dict[str, UCPWorker] = {}
        # Ring of the most recent drops (closed/unknown worker, or node
        # down); bounded so long degraded runs don't leak memory. Tests
        # assert on the total via dropped_count.
        self.dropped: Deque[Message] = deque(maxlen=64)
        self.dropped_count = 0
        #: crash flag: while True every delivered message is dropped.
        self.down = False
        fabric.node(node_name).attach(self._receive)

    def create_worker(self, name: str) -> "UCPWorker":
        """Create a named worker on this node (names unique per node)."""
        if name in self.workers:
            raise UCXError(f"worker {name!r} already exists on {self.node_name!r}")
        worker = UCPWorker(self, name)
        self.workers[name] = worker
        return worker

    def _receive(self, msg: Message) -> None:
        """Route one message the node's progress event handed over."""
        worker = self.workers.get(msg.worker)
        if self.down or worker is None or worker.closed:
            self.dropped.append(msg)
            self.dropped_count += 1
            return
        worker._deliver(msg)


class UCPWorker:
    """A UCP worker: endpoint factory plus tag-matched message delivery."""

    def __init__(self, context: UCPContext, name: str):
        self.context = context
        self.name = name
        self.closed = False
        self._handlers: Dict[str, Callable[[Message], None]] = {}
        self._queues: Dict[str, Deque[Message]] = {}

    @property
    def address(self) -> Address:
        return (self.context.node_name, self.name)

    def create_endpoint(self, remote: Address) -> "Endpoint":
        """Connect this worker to a remote worker address."""
        self._check_open()
        return Endpoint(self, remote)

    # ------------------------------------------------------------- receiving
    def on(self, tag: str, handler: Callable[[Message], None]) -> None:
        """Register a push handler for *tag*; drains any queued messages."""
        self._check_open()
        if tag in self._handlers:
            raise UCXError(f"handler for tag {tag!r} already registered")
        self._handlers[tag] = handler
        queued = self._queues.pop(tag, None)
        if queued:
            for msg in queued:
                handler(msg)

    def _deliver(self, msg: Message) -> None:
        handler = self._handlers.get(msg.tag)
        if handler is not None:
            handler(msg)
            return
        self._queues.setdefault(msg.tag, deque()).append(msg)

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Destroy the worker; subsequent traffic to it is dropped."""
        self.closed = True
        self.context.workers.pop(self.name, None)

    def _check_open(self) -> None:
        if self.closed:
            raise UCXError(f"worker {self.name!r} is closed")

    def __repr__(self) -> str:  # pragma: no cover
        return f"<UCPWorker {self.context.node_name}/{self.name}>"


class Endpoint:
    """A connection from a local worker to a remote worker address."""

    def __init__(self, worker: UCPWorker, remote: Address):
        self.worker = worker
        self.remote = remote

    def send(self, tag: str, payload=None, size: int = 0) -> Event:
        """Send a tagged message; the event fires on remote enqueue."""
        self.worker._check_open()
        context = self.worker.context
        node, worker_name = self.remote
        return context.fabric.send(Message(
            context.node_name, node, tag, payload, size, worker_name))

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Endpoint {self.worker.address} -> {self.remote}>"


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
