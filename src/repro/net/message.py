"""Typed messages moved across the simulated interconnect."""

from __future__ import annotations

import itertools
from typing import Any

__all__ = ["Message"]

_msg_ids = itertools.count()


class Message:
    """One network message.

    ``size`` is the on-wire byte count used for serialisation delay (header
    plus payload bytes); ``payload`` is the simulated content and is never
    serialised for real.

    One is built per send, so the class is slotted and its fields are in
    the order :meth:`~repro.ucx.ucp.UCPWorker.send` passes them.
    """

    __slots__ = ("src", "dst", "payload", "size", "worker", "msg_id")

    def __init__(self, src: str, dst: str, payload: Any = None,
                 size: int = 0, worker: str = ""):
        if size < 0:
            raise ValueError(f"negative message size: {size}")
        self.src = src
        self.dst = dst
        self.payload = payload
        self.size = size
        #: destination UCP worker name ("" = no worker: dropped on arrival)
        self.worker = worker
        self.msg_id = next(_msg_ids)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Message #{self.msg_id} {self.src}->{self.dst}/"
                f"{self.worker} {self.size}B>")
