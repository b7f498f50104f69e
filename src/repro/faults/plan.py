"""Typed fault descriptions and the plan that schedules them.

Every fault is a frozen dataclass — a pure description, with no behaviour
— so plans are hashable, comparable, printable, and trivially
serialisable. The :class:`~repro.faults.injector.FaultInjector` gives
them effect.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from ..errors import ConfigError

__all__ = ["ServerCrash", "LinkFault", "HeartbeatLoss", "StorageFault",
           "ClientDisconnect", "FaultPlan", "Fault"]


def _check_window(start: float, stop: float, what: str) -> None:
    if start < 0 or stop < start:
        raise ConfigError(f"{what}: invalid window [{start}, {stop})")


def _check_prob(p: float, what: str) -> None:
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"{what}: probability {p} outside [0, 1]")


@dataclass(frozen=True)
class ServerCrash:
    """Fail-stop *server* at time *at*; optionally restart later.

    With ``restart_at`` set the server recovers at that time (journal
    replay + log-segment scan when the cluster is configured with
    ``journal=True`` / ``storage_backend="log"``) and rejoins the
    cluster. Without it, the server stays dead for the rest of the run.
    """

    server: str
    at: float
    restart_at: Optional[float] = None

    def __post_init__(self):
        if self.at < 0:
            raise ConfigError(f"crash time must be >= 0: {self.at}")
        if self.restart_at is not None and self.restart_at <= self.at:
            raise ConfigError(
                f"restart_at {self.restart_at} must be after crash {self.at}")

    @property
    def start(self) -> float:
        """When the fault takes effect (plan ordering key)."""
        return self.at


@dataclass(frozen=True)
class LinkFault:
    """Degrade (or partition) fabric links during ``[start, stop)``.

    ``a``/``b`` name the affected endpoints: both None = every message,
    only ``a`` = every message to or from ``a``, both set = messages
    between ``a`` and ``b`` in either direction. Each matching message
    is dropped with ``drop_prob`` (1.0 = a full partition), otherwise
    delivered ``delay`` seconds late when ``delay > 0``.
    """

    start: float
    stop: float
    a: Optional[str] = None
    b: Optional[str] = None
    drop_prob: float = 0.0
    delay: float = 0.0

    def __post_init__(self):
        _check_window(self.start, self.stop, "LinkFault")
        _check_prob(self.drop_prob, "LinkFault.drop_prob")
        if self.delay < 0:
            raise ConfigError(f"LinkFault.delay must be >= 0: {self.delay}")
        if self.drop_prob == 0.0 and self.delay == 0.0:
            raise ConfigError("LinkFault with no drop_prob and no delay "
                              "does nothing")
        if self.a is None and self.b is not None:
            raise ConfigError("LinkFault: set `a` before `b`")

    def matches(self, src: str, dst: str) -> bool:
        """True if a message ``src -> dst`` crosses this fault's links."""
        if self.a is None:
            return True
        if self.b is None:
            return self.a in (src, dst)
        return {src, dst} == {self.a, self.b}


@dataclass(frozen=True)
class HeartbeatLoss:
    """Suppress heartbeat messages during ``[start, stop)``.

    ``client_id`` limits the loss to one client's beats; None silences
    every client. Servers then expire the affected jobs via the monitor
    (DESIGN §6: dropped heartbeats → inactivation + re-tokenisation).
    """

    start: float
    stop: float
    client_id: Optional[str] = None

    def __post_init__(self):
        _check_window(self.start, self.stop, "HeartbeatLoss")


@dataclass(frozen=True)
class StorageFault:
    """Fail storage ops on *server* with EIO during ``[start, stop)``.

    Each request applied in the window fails independently with
    ``error_rate`` (1.0 = every op). The server replies ``ok=False``;
    fault-tolerant clients retry with backoff.
    """

    server: str
    start: float
    stop: float
    error_rate: float = 1.0

    def __post_init__(self):
        _check_window(self.start, self.stop, "StorageFault")
        _check_prob(self.error_rate, "StorageFault.error_rate")
        if self.error_rate == 0.0:
            raise ConfigError("StorageFault with error_rate 0 does nothing")


@dataclass(frozen=True)
class ClientDisconnect:
    """Abruptly disconnect *client_id* at time *at* (no goodbye).

    Servers notice through heartbeat expiry and destroy the client's
    worker mappings (DESIGN §6: client exit cleanup, ungraceful half).
    """

    client_id: str
    at: float

    def __post_init__(self):
        if self.at < 0:
            raise ConfigError(f"disconnect time must be >= 0: {self.at}")

    @property
    def start(self) -> float:
        """When the fault takes effect (plan ordering key)."""
        return self.at


#: Any schedulable fault type.
Fault = Union[ServerCrash, LinkFault, HeartbeatLoss, StorageFault,
              ClientDisconnect]

_FAULT_TYPES = (ServerCrash, LinkFault, HeartbeatLoss, StorageFault,
                ClientDisconnect)


@dataclass(frozen=True, init=False)
class FaultPlan:
    """An ordered set of faults to inject into one run.

    Faults are sorted by their effect time (then plan position) at
    construction so a plan's description — and the injector's rng stream
    numbering — does not depend on authoring order.
    """

    faults: tuple

    def __init__(self, faults: Sequence[Fault]):
        items = list(faults)
        for f in items:
            if not isinstance(f, _FAULT_TYPES):
                raise ConfigError(f"not a fault: {f!r}")
        items.sort(key=lambda f: getattr(f, "start", 0.0))
        # A server cannot crash again before it restarted: overlapping
        # down-windows for the same server describe an impossible
        # schedule (the injector would crash an already-dead server).
        windows: dict = {}
        for f in items:
            if not isinstance(f, ServerCrash):
                continue
            stop = (f.restart_at if f.restart_at is not None
                    else float("inf"))
            for lo, hi in windows.get(f.server, []):
                if f.at < hi and lo < stop:
                    raise ConfigError(
                        f"overlapping crash windows for {f.server!r}: "
                        f"[{lo}, {hi}) and [{f.at}, {stop})")
            windows.setdefault(f.server, []).append((f.at, stop))
        object.__setattr__(self, "faults", tuple(items))

    def __len__(self) -> int:
        return len(self.faults)

    def of_type(self, fault_type) -> List[Fault]:
        """The plan's faults of one type, in schedule order."""
        return [f for f in self.faults if isinstance(f, fault_type)]

    def describe(self) -> str:
        """One line per fault, in schedule order."""
        lines = [f"t={getattr(f, 'start', 0.0):9.3f}  {f!r}"
                 for f in self.faults]
        return "\n".join(lines)
