"""mdtest-like metadata benchmark (§5.1).

Each stream loops create -> stat -> unlink over a private name set,
stressing the metadata path the way the paper's "I/O workload ...
heavy in metadata access" motivation describes (§2.2.1).
"""

from __future__ import annotations

from ..errors import ConfigError
from .base import Workload

__all__ = ["MdtestWorkload"]


class MdtestWorkload(Workload):
    """create/stat/unlink churn on per-stream file names."""

    def __init__(self, files_per_iteration: int = 16,
                 streams_per_node: int = 8):
        if files_per_iteration < 1:
            raise ConfigError("files_per_iteration must be >= 1")
        self.files_per_iteration = int(files_per_iteration)
        self.streams_per_node = streams_per_node

    def run_stream(self, engine, client, rng, prefix, stream_idx, stop_time):
        base = f"{prefix}/md-{client.client_id}-{stream_idx}"
        while not self._expired(engine, stop_time):
            for i in range(self.files_per_iteration):
                yield from client.create(f"{base}-{i}")
            for i in range(self.files_per_iteration):
                yield from client.stat(f"{base}-{i}")
            for i in range(self.files_per_iteration):
                yield from client.unlink(f"{base}-{i}")
