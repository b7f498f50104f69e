"""Typed messages moved across the simulated interconnect."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

__all__ = ["Message"]

_msg_ids = itertools.count()


@dataclass
class Message:
    """One network message.

    ``size`` is the on-wire byte count used for serialisation delay (header
    plus payload bytes); ``payload`` is the simulated content and is never
    serialised for real.

    ``payload_bytes`` is the *effective* wire byte count after any
    payload-level encoding (e.g. λ-sync delta pushes), accounted by
    :attr:`~repro.net.fabric.Fabric.payload_bytes_sent`. ``None`` (the
    default) means "same as ``size``". Keeping it separate from ``size``
    lets an encoding shrink measured traffic without perturbing the
    simulated serialisation delay.
    """

    src: str
    dst: str
    tag: str
    payload: Any = None
    size: int = 0
    worker: str = ""  # destination UCP worker name ("" = node default)
    payload_bytes: Optional[int] = None
    msg_id: int = field(default_factory=_msg_ids.__next__)

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"negative message size: {self.size}")
        if self.payload_bytes is not None and self.payload_bytes < 0:
            raise ValueError(
                f"negative payload bytes: {self.payload_bytes}")
