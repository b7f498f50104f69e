"""Discrete-event simulation substrate (built from scratch).

Public surface:

- :class:`Engine` — the kernel: clock + event heap.
- :class:`Event`, :class:`Timeout`, :class:`Process`, :class:`AllOf`,
  :class:`AnyOf` — concurrency primitives.
- :class:`BandwidthPipe` — the serialising link.
- :class:`RngRegistry` — named deterministic random streams.
"""

from .engine import Engine
from .process import AllOf, AnyOf, Condition, Event, Process, Timeout
from .resources import BandwidthPipe
from .rng import RngRegistry, stable_hash

__all__ = [
    "Engine",
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "AllOf",
    "AnyOf",
    "BandwidthPipe",
    "RngRegistry",
    "stable_hash",
]
