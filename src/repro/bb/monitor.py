"""The server's job monitor (§4.1).

"The job monitor may receive heartbeats from multiple clients of
multiple applications. It maintains a job status table ... Job status is
set to active when the corresponding job is new to the server. It is
changed to inactive if a job heartbeat is not received for a predefined
period of time."

The monitor also tracks which clients belong to which job so that when a
job goes inactive (or a client says goodbye) the server can destroy the
corresponding UCP worker mapping entries (§4.2).
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from ..core.jobinfo import JobInfo, JobStatusTable

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import Engine

__all__ = ["JobMonitor"]


class JobMonitor:
    """Heartbeat-driven job tracking for one server."""

    def __init__(self, engine: "Engine", heartbeat_timeout: float = 5.0,
                 check_interval: float = 1.0,
                 on_expire: Optional[Callable[[List[int]], None]] = None):
        self.engine = engine
        self.table = JobStatusTable(heartbeat_timeout)
        self.check_interval = check_interval
        self.on_expire = on_expire
        self._client_job: Dict[str, int] = {}
        #: how many client ids map to each job.
        self._job_clients: Counter = Counter()
        #: jobs that have contacted THIS server directly (vs. learned via
        #: λ-sync merges) — the placement information Fig. 5's token
        #: adjustment needs.
        self.local_jobs: set = set()
        self._process = engine.process(self._expiry_loop())

    # ---------------------------------------------------------------- intake
    def observe(self, info: JobInfo, client_id: str = "") -> bool:
        """Record job metadata from a register, heartbeat or I/O request."""
        if client_id:
            previous = self._client_job.get(client_id)
            if previous != info.job_id:
                if previous is not None:
                    self._job_clients[previous] -= 1
                self._client_job[client_id] = info.job_id
                self._job_clients[info.job_id] += 1
        self.local_jobs.add(info.job_id)
        return self.table.observe(info, self.engine.now)

    def reset(self) -> None:
        """Forget everything (server crash): the job table, client→job
        mappings, and placement knowledge all restart empty. The expiry
        loop keeps running — an empty table expires nothing."""
        self.table = JobStatusTable(self.table.heartbeat_timeout)
        self._client_job.clear()
        self._job_clients.clear()
        self.local_jobs.clear()

    def client_exit(self, client_id: str) -> Optional[int]:
        """Forget a client; returns its job id if it was known."""
        job_id = self._client_job.pop(client_id, None)
        if job_id is not None:
            self._job_clients[job_id] -= 1
        return job_id

    def client_count(self, job_id: int) -> int:
        """How many client ids are currently mapped to *job_id*."""
        return self._job_clients[job_id]

    def clients_of(self, job_id: int) -> List[str]:
        """Client ids currently mapped to *job_id*, sorted."""
        return sorted(cid for cid, jid in self._client_job.items()
                      if jid == job_id)

    # ---------------------------------------------------------------- expiry
    def _expiry_loop(self):
        while True:
            yield self.engine.timeout(self.check_interval)
            expired = self.table.expire(self.engine.now)
            if expired and self.on_expire is not None:
                self.on_expire(expired)

    def active_jobs(self) -> List[JobInfo]:
        """Active jobs in this server's table, sorted by id."""
        return self.table.active_jobs()

    def active_local_jobs(self) -> set:
        """Active jobs whose files/clients touch this server directly."""
        return self.local_jobs & self.table.active_ids
