"""Shared simulated resources: the bandwidth pipe."""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from .engine import Engine

__all__ = ["BandwidthPipe"]


class BandwidthPipe:
    """A serialising link: transfers complete at ``size / rate`` in FIFO order.

    Models a NIC or device channel where transmissions queue behind each
    other; the pipe is busy until its last accepted transfer drains.
    ``reserve(nbytes)`` returns the completion time, for a caller that
    schedules its own event at it. A per-transfer fixed ``latency`` is
    added after serialisation.
    """

    __slots__ = ("engine", "rate", "latency", "_free_at", "_last_reserved",
                 "bytes_moved")

    def __init__(self, engine: "Engine", rate: float, latency: float = 0.0):
        if rate <= 0:
            raise SimulationError("rate must be positive")
        if latency < 0:
            raise SimulationError("latency must be non-negative")
        self.engine = engine
        self.rate = float(rate)
        self.latency = float(latency)
        self._free_at = 0.0  # time the pipe drains
        self._last_reserved = 0.0  # what reserve() last returned
        self.bytes_moved = 0

    def reserve(self, nbytes: float) -> float:
        """Queue *nbytes* behind what the pipe already holds and return
        the absolute time they have drained (plus the pipe's latency).

        The one place the drain time is worked out: the fabric starts a
        message's wire time from it. It is written
        ``now + (free_at + latency - now)``, not ``free_at + latency``:
        the two can differ in the last bit, and every committed trace
        digest was produced with the first.
        That expression is not monotone in ``now`` — a later reservation
        can round one ulp *below* an earlier one — so the result is
        clamped to what the pipe last returned: FIFO order survives
        rounding.
        """
        if nbytes < 0:
            raise SimulationError("nbytes must be non-negative")
        now = self.engine.now
        self._free_at = max(self._free_at, now) + nbytes / self.rate
        self.bytes_moved += int(nbytes)
        drained = now + (self._free_at + self.latency - now)
        if drained > self._last_reserved:
            self._last_reserved = drained
        return self._last_reserved
