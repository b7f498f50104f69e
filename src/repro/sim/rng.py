"""Named, reproducible random-number streams.

Every stochastic component in the simulator (token draws, workload jitter,
file-name generation, ...) pulls from a *named* stream derived from one
experiment seed. Two runs with the same seed are therefore identical, and
adding a new consumer does not perturb existing streams — each name maps
to an independent :class:`numpy.random.Generator` via ``SeedSequence``
spawn keys derived from a stable hash of the name.
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np

__all__ = ["RngRegistry", "stable_hash"]


def stable_hash(name: str) -> int:
    """A process-stable 64-bit hash of *name* (unlike builtin ``hash``)."""
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class RngRegistry:
    """Factory of independent named random streams under one master seed."""

    def __init__(self, seed: int = 0):
        self.seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return (creating on first use) the generator for *name*."""
        gen = self._streams.get(name)
        if gen is None:
            ss = np.random.SeedSequence([self.seed, stable_hash(name)])
            gen = np.random.Generator(np.random.PCG64(ss))
            self._streams[name] = gen
        return gen

    def __repr__(self) -> str:  # pragma: no cover
        return f"<RngRegistry seed={self.seed} streams={sorted(self._streams)}>"
