"""Crash-driven erasure repair (the durability tier's recovery half).

A :class:`RepairManager` watches the fabric's liveness oracle (the same
down-set the heartbeat machinery reflects): when a server goes down it
starts a *repair episode* — for every erasure-coded file with shares on
the dead server, rebuild the lost share of each stripe group onto a
substitute server, then restripe the file so future I/O routes around
the dead node.

Repair traffic is **first-class scheduled I/O**: the manager drives it
through a dedicated :class:`~repro.bb.client.Client` whose requests
carry a distinct repair :class:`~repro.core.jobinfo.JobInfo`, so
GIFT / TBF / size-fair / opportunity-fair arbitrate repair against
foreground bandwidth exactly like any other job — the repair-vs-fairness
experiment measures precisely that contention. Share *content* moves at
the fs layer (instantaneous, like every ThemisFS call); the scheduled
share reads/writes charge the simulated time.

Robust under compound faults: a second crash mid-repair shrinks the
survivor set — groups still holding ``k`` reachable shares repair
normally, groups below ``k`` are accounted as lost (``data_lost_groups``)
and skipped, never raised. Injected storage errors fail individual share
requests, which are counted and retried or skipped without aborting the
episode.
"""

from __future__ import annotations

from dataclasses import replace
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Set

from ..core.jobinfo import JobInfo
from ..errors import FileNotFound, RpcTimeout
from ..fs.striping import ErasureSpec
from .client import Client
from .request import OpType

if TYPE_CHECKING:  # pragma: no cover
    from .cluster import Cluster

__all__ = ["RepairManager", "REPAIR_JOB_ID", "REPAIR_USER"]

#: job id repair traffic is billed to (outside any workload's id range).
REPAIR_JOB_ID = 1 << 20
#: user/group the repair job runs as (size-fair sees a size-1 job).
REPAIR_USER = "repair"


class RepairManager:
    """Detects dead share servers and rebuilds their shares elsewhere."""

    def __init__(self, cluster: "Cluster", detect_interval: float = 0.5):
        self.cluster = cluster
        self.engine = cluster.engine
        self.fs = cluster.fs
        self.stats = cluster.fault_stats
        self.detect_interval = detect_interval
        #: dead server -> detection time, while its episode runs.
        self.active: Dict[str, float] = {}
        #: crashes already handled; cleared when the server is seen up
        #: again, so only a fresh crash starts a fresh episode.
        self._handled: Set[str] = set()
        #: finished episode records (oldest first).
        self.episodes: List[Dict[str, Any]] = []
        self._client: Optional[Client] = None
        self.process = self.engine.process(self._watch())

    # ------------------------------------------------------------- detection
    def _watch(self):
        """Failure-detector loop: poll the down-set every
        ``detect_interval`` (heartbeat-granularity detection latency)."""
        while True:
            yield self.engine.timeout(self.detect_interval)
            for name in sorted(self.cluster.servers):
                if name not in self.cluster.fabric.down:
                    self._handled.discard(name)
                elif name not in self._handled:
                    self._handled.add(name)
                    self.active[name] = self.engine.now
                    self.engine.process(self._episode(name))

    def _down_set(self) -> Set[str]:
        return {name for name in sorted(self.cluster.servers)
                if name in self.cluster.fabric.down}

    def _pick_substitute(self, spec: ErasureSpec) -> Optional[str]:
        """First live server outside the file's placement (determinism:
        name order)."""
        for name in sorted(self.cluster.servers):
            if name in spec.servers:
                continue
            if name in self.cluster.fabric.down:
                continue
            return name
        return None

    # ---------------------------------------------------------- repair client
    def _repair_client(self) -> Client:
        """The dedicated client whose requests carry the repair job.

        Retries are bounded even if the cluster's clients retry forever:
        a repair source that dies mid-episode must fail the share fetch
        (so the group is re-planned or accounted lost), not wedge the
        episode until a restart that may never come.
        """
        if self._client is None:
            cfg = self.cluster.config.client
            cfg = replace(cfg,
                          rpc_timeout=cfg.rpc_timeout or 0.25,
                          rpc_retries=cfg.rpc_retries if cfg.rpc_retries >= 0
                          else 8)
            job = JobInfo(job_id=REPAIR_JOB_ID, user=REPAIR_USER,
                          group=REPAIR_USER, size=1)
            self._client = self.cluster.add_client(job, REPAIR_USER, cfg)
        return self._client

    # --------------------------------------------------------------- episode
    def _episode(self, dead: str):
        """Generator: repair everything *dead* held, then record stats."""
        episode: Dict[str, Any] = {
            "server": dead, "detected_at": self.engine.now,
            "files": 0, "groups_repaired": 0, "groups_clean": 0,
            "groups_lost": 0, "io_failures": 0, "skipped_files": 0,
            "repair_bytes": 0,
        }
        try:
            for path in self.fs.erasure_files_on(dead):
                inode = self.fs.lookup(path)
                if inode is None or not isinstance(inode.stripe, ErasureSpec):
                    continue
                spec = inode.stripe
                if dead not in spec.servers:
                    continue
                substitute = self._pick_substitute(spec)
                if substitute is None:
                    # Nowhere to rebuild (every live server already holds
                    # a share): stay degraded, reads reconstruct inline.
                    episode["skipped_files"] += 1
                    continue
                episode["files"] += 1
                yield from self._repair_file(path, spec, inode.size, dead,
                                             substitute, episode)
        finally:
            episode["finished_at"] = self.engine.now
            self.episodes.append(episode)
            self.active.pop(dead, None)

    def _repair_file(self, path: str, spec: ErasureSpec, size: int,
                     dead: str, substitute: str,
                     episode: Dict[str, Any]):
        """Generator: rebuild every group's lost share, then restripe."""
        file_lost = 0
        for group in range(spec.n_groups(size)):
            down = self._down_set() | {dead}
            lost_share = spec.share_of_server(group, dead)
            sources = [s for s in range(spec.n)
                       if s != lost_share
                       and spec.server_of_share(group, s) not in down]
            sources = sources[:spec.k]
            if len(sources) < spec.k or substitute in down:
                # A compound fault ate the survivors (or the target):
                # account the loss and move on — repair never crashes.
                self.stats.data_lost_groups += 1
                episode["groups_lost"] += 1
                file_lost += 1
                continue
            moved = yield from self._group_io(path, spec, group, sources,
                                              substitute, episode)
            outcome, _ = self.fs.repair_group(
                path, group, dead, substitute,
                unavailable=self._down_set())
            if outcome == "lost":
                self.stats.data_lost_groups += 1
                episode["groups_lost"] += 1
                file_lost += 1
                continue
            key = "groups_repaired" if outcome == "repaired" else \
                "groups_clean"
            episode[key] += 1
            if outcome == "repaired":
                # Only content actually reconstructed counts as a
                # rebuilt share; "clean" groups (accounting-mode holes)
                # still cost the share traffic, billed below.
                self.stats.shares_reconstructed += 1
            self.stats.repair_bytes += moved
            episode["repair_bytes"] += moved
        inode = self.fs.lookup(path)
        if (file_lost == 0
                and inode is not None
                and isinstance(inode.stripe, ErasureSpec)
                and dead in inode.stripe.servers
                and substitute not in inode.stripe.servers):
            # Only a fully rebuilt file routes away from the dead
            # server. Restriping after a lossy episode would make the
            # substitute's hole chunks read as valid zero shares and
            # hide the loss; and a concurrent episode (compound crash)
            # may have restriped this substitute in already — in both
            # cases stay degraded.
            self.fs.restripe(path, dead, substitute)

    def _group_io(self, path: str, spec: ErasureSpec, group: int,
                  sources, substitute: str, episode: Dict[str, Any]):
        """Generator: scheduled share traffic of one group's rebuild —
        ``k`` share reads off the survivors, one share write to the
        substitute — billed to the repair job. Returns bytes moved
        (individual failures are counted and tolerated: the fs-level
        content move decides data fate)."""
        client = self._repair_client()
        anchor = group * spec.group_bytes
        moved = 0
        reads = []
        for s in sources:
            server = spec.server_of_share(group, s)
            reads.append(self.engine.process(self._safe_call(
                client._io_call(server, OpType.READ, path, anchor,
                                spec.stripe_size, share=True))))
        results = yield self.engine.all_of(reads)
        for ok in results:
            if ok is None:
                episode["io_failures"] += 1
            else:
                moved += spec.stripe_size
        if (yield from self._safe_call(client._io_call(
                substitute, OpType.WRITE, path, anchor, spec.stripe_size,
                share=True))) is None:
            episode["io_failures"] += 1
        else:
            moved += spec.stripe_size
        return moved

    @staticmethod
    def _safe_call(gen):
        """Generator: run one share request, absorbing its failure
        (returns None) so a compound fault can never fail the AllOf —
        and through it, the engine — out from under the episode."""
        try:
            return (yield from gen)
        except (RpcTimeout, FileNotFound):
            return None

    # --------------------------------------------------------------- summary
    def summary(self) -> Dict[str, Any]:
        """Aggregate episode statistics (the experiment's repair half)."""
        done = self.episodes
        return {
            "episodes": len(done),
            "active": sorted(self.active),
            "files": sum(e["files"] for e in done),
            "groups_repaired": sum(e["groups_repaired"] for e in done),
            "groups_clean": sum(e["groups_clean"] for e in done),
            "groups_lost": sum(e["groups_lost"] for e in done),
            "io_failures": sum(e["io_failures"] for e in done),
            "repair_bytes": sum(e["repair_bytes"] for e in done),
            "repair_seconds": sum(e["finished_at"] - e["detected_at"]
                                  for e in done),
        }
