"""Job metadata and the heartbeat-driven job status table (§4.1).

Clients embed job-related information — job id, user id, group, job size
(node count) — in every I/O request and send periodic heartbeats. Each
server's **job monitor** maintains a :class:`JobStatusTable`: a job is
*active* from its first contact and becomes *inactive* when no heartbeat
arrives within the timeout. Tables from different servers are merged
during λ-delayed fairness synchronisation (§3.1): entries are unioned
and, for jobs known to both, the newest heartbeat wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, Iterable, List, Optional, Set

from ..errors import SchedulerError

__all__ = ["JobInfo", "JobStatusTable"]


@dataclass(frozen=True)
class JobInfo:
    """Immutable description of one job, as embedded in I/O requests."""

    job_id: int
    user: str
    group: str = "g0"
    size: int = 1          # compute-node count
    priority: float = 1.0

    def __post_init__(self):
        if self.size < 1:
            raise SchedulerError(f"job size must be >= 1: {self.size}")
        if self.priority <= 0:
            raise SchedulerError(f"priority must be positive: {self.priority}")


@dataclass
class _Entry:
    info: JobInfo
    last_heartbeat: float
    active: bool = True


class JobStatusTable:
    """One server's view of the jobs it has heard from.

    Parameters
    ----------
    heartbeat_timeout:
        Seconds without a heartbeat after which a job is marked inactive
        ("a predefined period of time" in §4.1).
    """

    def __init__(self, heartbeat_timeout: float = 5.0):
        if heartbeat_timeout <= 0:
            raise SchedulerError("heartbeat_timeout must be positive")
        self.heartbeat_timeout = float(heartbeat_timeout)
        self._entries: Dict[int, _Entry] = {}
        #: ids of the entries whose ``active`` flag is set, kept current
        #: by every method that changes a flag or drops an entry.
        self._active_ids: Set[int] = set()
        self.version = 0  # bumped on any membership/activity change

    # --------------------------------------------------------------- updates
    def observe(self, info: JobInfo, now: float) -> bool:
        """Register or refresh a job from request/heartbeat metadata.

        Returns True if the active-job set changed (new job or a
        reactivation), which tells the controller to recompute tokens.
        """
        entry = self._entries.get(info.job_id)
        if entry is None:
            self._entries[info.job_id] = _Entry(info=info, last_heartbeat=now)
            self._active_ids.add(info.job_id)
            self.version += 1
            return True
        changed = not entry.active or entry.info != info
        entry.info = info
        entry.last_heartbeat = now
        if not entry.active:
            entry.active = True
            self._active_ids.add(info.job_id)
        if changed:
            self.version += 1
        return changed

    def heartbeat(self, job_id: int, now: float) -> None:
        """Refresh the heartbeat timestamp of a known job."""
        entry = self._entries.get(job_id)
        if entry is None:
            raise SchedulerError(f"heartbeat for unknown job {job_id}")
        entry.last_heartbeat = now
        if not entry.active:
            entry.active = True
            self._active_ids.add(job_id)
            self.version += 1

    def expire(self, now: float) -> List[int]:
        """Deactivate jobs whose heartbeat is older than the timeout."""
        expired = []
        for job_id, entry in self._entries.items():
            if entry.active and now - entry.last_heartbeat > self.heartbeat_timeout:
                entry.active = False
                expired.append(job_id)
        if expired:
            self._active_ids.difference_update(expired)
            self.version += 1
        return expired

    def deactivate(self, job_id: int) -> bool:
        """Explicitly mark a job inactive (client exit notification)."""
        entry = self._entries.get(job_id)
        if entry is None or not entry.active:
            return False
        entry.active = False
        self._active_ids.discard(job_id)
        self.version += 1
        return True

    def remove(self, job_id: int) -> bool:
        """Drop a job entirely (post-exit garbage collection)."""
        if self._entries.pop(job_id, None) is not None:
            self._active_ids.discard(job_id)
            self.version += 1
            return True
        return False

    # ---------------------------------------------------------------- merging
    def snapshot(self) -> List[dict]:
        """Serializable entries for the λ-sync all-gather."""
        return [
            {"info": entry.info, "last_heartbeat": entry.last_heartbeat,
             "active": entry.active}
            for entry in self._entries.values()
        ]

    def merge(self, remote_entries: Iterable[dict]) -> bool:
        """Union remote entries into this table; newest heartbeat wins.

        Returns True if the active-job set (or any job's info) changed.
        """
        changed = False
        for remote in remote_entries:
            info: JobInfo = remote["info"]
            entry = self._entries.get(info.job_id)
            if entry is None:
                self._entries[info.job_id] = _Entry(
                    info=info, last_heartbeat=remote["last_heartbeat"],
                    active=remote["active"])
                if remote["active"]:
                    self._active_ids.add(info.job_id)
                changed = True
            elif remote["last_heartbeat"] > entry.last_heartbeat:
                if entry.active != remote["active"]:
                    changed = True
                    if remote["active"]:
                        self._active_ids.add(info.job_id)
                    else:
                        self._active_ids.discard(info.job_id)
                elif entry.info != info:
                    changed = True
                entry.info = info
                entry.last_heartbeat = remote["last_heartbeat"]
                entry.active = remote["active"]
        if changed:
            self.version += 1
        return changed

    # ----------------------------------------------------------------- reads
    def get(self, job_id: int) -> Optional[JobInfo]:
        """The job's metadata, or None if unknown."""
        entry = self._entries.get(job_id)
        return entry.info if entry else None

    def is_active(self, job_id: int) -> bool:
        """True if the job is known and currently active."""
        return job_id in self._active_ids

    @property
    def active_ids(self) -> AbstractSet[int]:
        """Ids of the active jobs: a live view, not to be mutated."""
        return self._active_ids

    def active_jobs(self) -> List[JobInfo]:
        """Active jobs, sorted by job id for determinism."""
        entries = self._entries
        return [entries[job_id].info for job_id in sorted(self._active_ids)]

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, job_id: int) -> bool:
        return job_id in self._entries
