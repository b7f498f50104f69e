"""Request/response framing on top of UCP workers.

A thin RPC layer: clients issue tagged calls with correlation ids; the
server hands each inbound call to a request callback as an
:class:`RpcRequest`, which carries a ``reply()`` method. Replies may be
sent immediately or after arbitrary simulated processing — ThemisIO's
servers answer only after the scheduled I/O worker finishes the request,
so the reply path must be detachable from the receive path.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Optional

from ..errors import RpcTimeout, UCXError
from ..sim.process import Event
from .ucp import Address, Endpoint, UCPWorker

__all__ = ["RpcClient", "RpcServer", "RpcRequest"]

REQ_TAG = "rpc.req"
RESP_TAG = "rpc.resp"

_call_ids = itertools.count(1)


class RpcRequest:
    """An inbound call as seen by the server."""

    def __init__(self, server: "RpcServer", msg_payload: Dict[str, Any]):
        self._server = server
        self.op: str = msg_payload["op"]
        self.body: Any = msg_payload["body"]
        self.size: int = msg_payload["size"]
        self.cid: int = msg_payload["cid"]
        self.reply_to: Address = msg_payload["reply_to"]
        self.replied = False

    def reply(self, body: Any = None, size: int = 0,
              payload_bytes: Optional[int] = None) -> Event:
        """Send the response (once); the event fires on remote enqueue."""
        if self.replied:
            raise UCXError(f"duplicate reply to call {self.cid}")
        self.replied = True
        ep = self._server.worker.create_endpoint(self.reply_to)
        return ep.send(RESP_TAG, {"cid": self.cid, "body": body}, size=size,
                       payload_bytes=payload_bytes)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<RpcRequest op={self.op!r} cid={self.cid}>"


class RpcServer:
    """Dispatches inbound calls on a worker to *on_request*."""

    def __init__(self, worker: UCPWorker,
                 on_request: Callable[[RpcRequest], None]):
        self.worker = worker
        self.on_request = on_request
        worker.on(REQ_TAG, self._handle)
        self.calls_received = 0
        #: inbound calls per op name (protocol accounting: e.g. how many
        #: λ-sync pulls vs pushes a server answered).
        self.calls_by_op: Dict[str, int] = {}

    def _handle(self, msg) -> None:
        self.calls_received += 1
        op = msg.payload["op"]
        self.calls_by_op[op] = self.calls_by_op.get(op, 0) + 1
        self.on_request(RpcRequest(self, msg.payload))


class RpcClient:
    """Issues calls from a local worker to a remote RPC server."""

    def __init__(self, worker: UCPWorker, remote: Address):
        self.worker = worker
        self.endpoint: Endpoint = worker.create_endpoint(remote)
        self._pending: Dict[int, Event] = {}
        #: expiry timers for pending timed calls, cancelled when the
        #: response wins the race (keeps the event queue corpse-free
        #: under heavy call churn; see DESIGN.md §15).
        self._timers: Dict[int, Event] = {}
        #: calls whose timeout expired before the response arrived.
        self.timeouts = 0
        #: responses for calls no longer pending (late reply after a
        #: timeout, or a duplicate from a retried request).
        self.unmatched_responses = 0
        worker.on(RESP_TAG, self._on_response)

    def call(self, op: str, body: Any = None, size: int = 0,
             timeout: Optional[float] = None,
             payload_bytes: Optional[int] = None) -> Event:
        """Invoke *op* remotely; the event's value is the response body.

        ``size`` is the request's on-wire byte count (e.g. write payload
        bytes); response size is chosen by the server when replying.
        ``payload_bytes`` optionally records the effective wire bytes
        after payload-level encoding (accounting only; timing still
        follows ``size``).

        With *timeout* set, the event instead fails with
        :class:`~repro.errors.RpcTimeout` if no response arrives within
        that many seconds; a response that shows up later is discarded
        (counted in :attr:`unmatched_responses`).
        """
        cid = next(_call_ids)
        done = Event(self.worker.engine)
        self._pending[cid] = done
        self.endpoint.send(
            REQ_TAG,
            {
                "op": op,
                "body": body,
                "size": size,
                "cid": cid,
                "reply_to": self.worker.address,
            },
            size=size,
            payload_bytes=payload_bytes,
        )
        if timeout is not None:
            timer = self.worker.engine.timeout(timeout)
            timer.callbacks.append(
                lambda _ev: self._expire(cid, done, op, timeout))
            self._timers[cid] = timer
        return done

    def _expire(self, cid: int, done: Event, op: str,
                timeout: float) -> None:
        self._timers.pop(cid, None)
        # Only fail the call if it is still the pending one for this cid
        # (the response may have raced the timer).
        if self._pending.get(cid) is not done:
            return
        del self._pending[cid]
        self.timeouts += 1
        # Defuse first: a timed-out call nobody is waiting on must not
        # crash the kernel; waiters still get RpcTimeout thrown in.
        done.defuse()
        done.fail(RpcTimeout(
            f"call {cid} ({op!r}) to {self.endpoint.remote} timed out "
            f"after {timeout}s"))

    def _on_response(self, msg) -> None:
        cid = msg.payload["cid"]
        done = self._pending.pop(cid, None)
        if done is None:
            # Late response after a timeout (or a duplicate): drop it.
            self.unmatched_responses += 1
            return
        timer = self._timers.pop(cid, None)
        if timer is not None and not timer.processed:
            # The response won the race: the expiry timer is garbage now.
            timer.cancel()
        done.succeed(msg.payload["body"])

    @property
    def in_flight(self) -> int:
        return len(self._pending)

    def close(self) -> None:
        """Tear down the response handler (no further calls)."""
        self.worker.off(RESP_TAG)
