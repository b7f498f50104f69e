"""Request/response framing on top of UCP workers.

A thin RPC layer: clients issue calls with correlation ids; the server
hands each inbound call to a request callback as an
:class:`RpcRequest`, which carries a ``reply()`` method. Each side owns
its worker and is that worker's one handler, so a worker carries one
kind of traffic: an :class:`RpcServer`'s receives only calls, an
:class:`RpcClient`'s only responses. Replies may be sent immediately or
after arbitrary simulated processing — ThemisIO's servers answer only
after the scheduled I/O worker finishes the request, so the reply path
must be detachable from the receive path.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Optional, Tuple

from ..errors import RpcTimeout, UCXError
from ..sim.process import Event
from .ucp import Address, UCPWorker

__all__ = ["RpcClient", "RpcServer", "RpcRequest"]

_call_ids = itertools.count(1)


class RpcRequest:
    """One call, built once by the caller: it *is* the request message's
    payload, and the object the server's request callback receives."""

    __slots__ = ("op", "body", "size", "cid", "reply_to", "_worker",
                 "replied")

    def __init__(self, op: str, body: Any, size: int, cid: int,
                 reply_to: Address):
        self.op = op
        self.body = body
        self.size = size
        self.cid = cid
        self.reply_to = reply_to
        #: the server worker that received the call (set on receipt).
        self._worker: Optional[UCPWorker] = None
        self.replied = False

    def reply(self, body: Any = None, size: int = 0) -> Event:
        """Send the response (once); the event fires on remote arrival."""
        if self.replied:
            raise UCXError(f"duplicate reply to call {self.cid}")
        self.replied = True
        return self._worker.send(self.reply_to, (self.cid, body), size)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<RpcRequest op={self.op!r} cid={self.cid}>"


class RpcServer:
    """Dispatches inbound calls on a worker to *on_request*."""

    def __init__(self, worker: UCPWorker,
                 on_request: Callable[[RpcRequest], None]):
        self.worker = worker
        self.on_request = on_request
        worker.handler = self._handle
        self.calls_received = 0

    def _handle(self, msg) -> None:
        self.calls_received += 1
        request = msg.payload
        request._worker = self.worker
        self.on_request(request)


class RpcClient:
    """Issues calls from a local worker to a remote RPC server."""

    def __init__(self, worker: UCPWorker, remote: Address):
        self.worker = worker
        self.remote = remote
        self._reply_to: Address = worker.address
        #: cid -> (completion event, expiry timer or None). The timer of
        #: a timed call is cancelled when the response wins the race
        #: (keeps the event queue corpse-free under heavy call churn;
        #: see DESIGN.md §15).
        self._pending: Dict[int, Tuple[Event, Optional[Event]]] = {}
        #: calls whose timeout expired before the response arrived.
        self.timeouts = 0
        #: responses for calls no longer pending (late reply after a
        #: timeout, or a duplicate from a retried request).
        self.unmatched_responses = 0
        worker.handler = self._on_response

    def call(self, op: str, body: Any = None, size: int = 0,
             timeout: Optional[float] = None) -> Event:
        """Invoke *op* remotely; the event's value is the response body.

        ``size`` is the request's on-wire byte count (e.g. write payload
        bytes); response size is chosen by the server when replying.

        With *timeout* set, the event instead fails with
        :class:`~repro.errors.RpcTimeout` if no response arrives within
        that many seconds; a response that shows up later is discarded
        (counted in :attr:`unmatched_responses`).
        """
        cid = next(_call_ids)
        engine = self.worker.context.engine
        done = Event(engine)
        self.worker.send(
            self.remote, RpcRequest(op, body, size, cid, self._reply_to),
            size)
        if timeout is None:
            self._pending[cid] = (done, None)
        else:
            # The timer's value names the call it expires.
            timer = engine.timeout(timeout, (cid, op))
            timer.callbacks.append(self._expire)
            self._pending[cid] = (done, timer)
        return done

    def _expire(self, timer: Event) -> None:
        cid, op = timer.value
        # Only fail the call if it is still pending (the response may
        # have raced the timer).
        entry = self._pending.pop(cid, None)
        if entry is None:
            return
        self.timeouts += 1
        # Defuse first: a timed-out call nobody is waiting on must not
        # crash the kernel; waiters still get RpcTimeout thrown in.
        done = entry[0]
        done.defuse()
        done.fail(RpcTimeout(
            f"call {cid} ({op!r}) to {self.remote} timed out "
            f"after {timer.delay}s"))

    def _on_response(self, msg) -> None:
        cid, body = msg.payload
        entry = self._pending.pop(cid, None)
        if entry is None:
            # Late response after a timeout (or a duplicate): drop it.
            self.unmatched_responses += 1
            return
        done, timer = entry
        if timer is not None and not timer._processed:
            # The response won the race: the expiry timer is garbage now.
            timer.cancel()
        done.succeed(body)

    @property
    def in_flight(self) -> int:
        return len(self._pending)
