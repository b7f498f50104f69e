"""Consistent-hash ring used to place files and metadata on servers.

§4.3: "files and metadata are spread across ThemisIO servers using a
consistent hash function". The ring hashes each server name to
``vnodes`` positions on a 64-bit circle; a key maps to the first server
clockwise of its hash. ``lookup_n`` walks further clockwise to collect
the *distinct* servers used for striping.
"""

from __future__ import annotations

import bisect
from typing import List, Tuple

from ..errors import FSError
from ..sim.rng import stable_hash

__all__ = ["ConsistentHashRing"]


class ConsistentHashRing:
    """Consistent hashing over named servers with virtual nodes."""

    def __init__(self, servers=(), vnodes: int = 64):
        if vnodes < 1:
            raise FSError("vnodes must be >= 1")
        self.vnodes = int(vnodes)
        self._ring: List[Tuple[int, str]] = []  # sorted (hash, server)
        self._servers: set = set()
        for server in servers:
            self.add_server(server)

    # -------------------------------------------------------------- topology
    def add_server(self, name: str) -> None:
        """Add *name* to the ring (vnodes positions)."""
        if name in self._servers:
            raise FSError(f"server already on ring: {name!r}")
        self._servers.add(name)
        for v in range(self.vnodes):
            h = stable_hash(f"{name}#{v}")
            bisect.insort(self._ring, (h, name))

    def remove_server(self, name: str) -> None:
        """Remove *name* and its vnodes from the ring."""
        if name not in self._servers:
            raise FSError(f"server not on ring: {name!r}")
        self._servers.discard(name)
        self._ring = [(h, s) for h, s in self._ring if s != name]

    # --------------------------------------------------------------- lookups
    def lookup(self, key: str) -> str:
        """The server owning *key*."""
        return self.lookup_n(key, 1)[0]

    def lookup_n(self, key: str, n: int) -> List[str]:
        """The first *n* distinct servers clockwise of *key*'s hash.

        Used for striping: stripe ``i`` of a file lands on the ``i``-th
        entry. If fewer than *n* servers exist, all servers are returned
        (striping degrades gracefully).
        """
        if not self._ring:
            raise FSError("hash ring is empty")
        if n < 1:
            raise FSError("n must be >= 1")
        h = stable_hash(key)
        idx = bisect.bisect_right(self._ring, (h, "￿"))
        found: List[str] = []
        seen = set()
        ring_len = len(self._ring)
        for step in range(ring_len):
            _, server = self._ring[(idx + step) % ring_len]
            if server not in seen:
                seen.add(server)
                found.append(server)
                if len(found) == n or len(found) == len(self._servers):
                    break
        return found
