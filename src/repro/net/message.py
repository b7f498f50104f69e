"""Typed messages moved across the simulated interconnect."""

from __future__ import annotations

from typing import Any

__all__ = ["Message"]

_INF = float("inf")


class Message:
    """One network message.

    ``size`` is the on-wire byte count used for serialisation delay (header
    plus payload bytes); ``payload`` is the simulated content and is never
    serialised for real.

    One is built per send, so the class is slotted and its fields are in
    the order :meth:`~repro.ucx.ucp.UCPWorker.send` passes them.
    """

    __slots__ = ("src", "dst", "payload", "size", "worker")

    def __init__(self, src: str, dst: str, payload: Any = None,
                 size: int = 0, worker: str = ""):
        # Written so that NaN, which compares false both ways, fails too:
        # sent, it would make the NIC's drain time NaN for good.
        if not 0 <= size < _INF:
            raise ValueError(f"message size not in [0, inf): {size!r}")
        self.src = src
        self.dst = dst
        self.payload = payload
        self.size = size
        #: destination UCP worker name ("" = no worker: dropped on arrival)
        self.worker = worker

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Message {self.src}->{self.dst}/{self.worker} {self.size}B>"
