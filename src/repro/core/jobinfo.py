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

import math
from dataclasses import dataclass
from typing import (AbstractSet, Dict, Iterable, List, NamedTuple, Optional,
                    Set)

from ..errors import SchedulerError

__all__ = ["JobInfo", "JobRecord", "JobStatusTable"]


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
        # Written so that NaN fails too: JobInfo arrives from outside the
        # server, and a NaN or infinite priority would poison every share.
        if not 0 < self.priority < math.inf:
            raise SchedulerError(
                f"priority must be finite and positive: {self.priority}")


class JobRecord(NamedTuple):
    """One job's status, immutable: the value a :class:`JobStatusTable`
    stores, its snapshot lists and the λ-sync messages carry, and a
    merge installs by reference. A change of status is a new record."""

    info: JobInfo
    last_heartbeat: float
    active: bool


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
        self._entries: Dict[int, JobRecord] = {}
        #: ids of the records whose ``active`` flag is set, kept current
        #: by every method that installs a record.
        self._active_ids: Set[int] = set()
        self.version = 0  # bumped on any membership/activity change

    # --------------------------------------------------------------- updates
    def observe(self, info: JobInfo, now: float) -> bool:
        """Register or refresh a job from request/heartbeat metadata.

        Returns True if the active-job set changed (new job or a
        reactivation), which tells the controller to recompute tokens.
        """
        job_id = info.job_id
        old = self._entries.get(job_id)
        self._entries[job_id] = JobRecord(info, now, True)
        changed = (old is None or not old.active
                   or (old.info is not info and old.info != info))
        if changed:
            self._active_ids.add(job_id)
            self.version += 1
        return changed

    def expire(self, now: float) -> List[int]:
        """Deactivate jobs whose heartbeat is older than the timeout."""
        entries = self._entries
        expired = [job_id for job_id, (_, stamp, active) in entries.items()
                   if active and now - stamp > self.heartbeat_timeout]
        for job_id in expired:
            entries[job_id] = entries[job_id]._replace(active=False)
        if expired:
            self._active_ids.difference_update(expired)
            self.version += 1
        return expired

    def deactivate(self, job_id: int) -> bool:
        """Explicitly mark a job inactive (client exit notification)."""
        record = self._entries.get(job_id)
        if record is None or not record.active:
            return False
        self._entries[job_id] = record._replace(active=False)
        self._active_ids.discard(job_id)
        self.version += 1
        return True

    # ---------------------------------------------------------------- merging
    def snapshot(self) -> List[JobRecord]:
        """The records, for the λ-sync all-gather: a new list of the
        immutable values the table holds, so nothing is copied per job
        and no later update of the table shows through."""
        return list(self._entries.values())

    def merge(self, remote_entries: Iterable[JobRecord]) -> bool:
        """Union remote records into this table; newest heartbeat wins
        and is installed by reference.

        Returns True if the active-job set (or any job's info) changed.
        """
        entries = self._entries
        changed = False
        for remote in remote_entries:
            info, stamp, active = remote
            job_id = info.job_id
            mine = entries.get(job_id)
            if mine is not None and not stamp > mine.last_heartbeat:
                continue
            entries[job_id] = remote
            if mine is None or mine.active != active:
                changed = True
                if active:
                    self._active_ids.add(job_id)
                else:
                    self._active_ids.discard(job_id)
            elif mine.info is not info and mine.info != info:
                changed = True
        if changed:
            self.version += 1
        return changed

    # ----------------------------------------------------------------- reads
    def get(self, job_id: int) -> Optional[JobInfo]:
        """The job's metadata, or None if unknown."""
        record = self._entries.get(job_id)
        return record.info if record else None

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
