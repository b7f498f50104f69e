"""Per-entity request queues (§4.1's communicator queues).

Inbound I/O requests "are grouped into queues based on the fair sharing
policy ... identified by job ids". Queue items only need a ``job_id``
attribute plus a ``cost`` (bytes of service the request consumes); the
burst-buffer request type satisfies this protocol.

The queue set sits on the scheduler's per-dequeue hot path, so its
bookkeeping is incremental: the sorted nonempty-job list is maintained
with ``bisect`` on membership transitions (not re-sorted per call),
and per-job cost totals are running accumulators (O(1) ``queued_cost``
for GIFT's demand estimate).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from ..errors import SchedulerError

__all__ = ["QueueSet"]


class QueueSet:
    """A set of FIFO queues keyed by job id."""

    __slots__ = ("_queues", "_sorted_jobs", "_total", "_job_cost")

    def __init__(self):
        self._queues: Dict[int, Deque[Any]] = {}
        self._sorted_jobs: List[int] = []  # job ids with a nonempty queue
        self._total = 0
        self._job_cost: Dict[int, float] = {}

    def push(self, item: Any) -> None:
        """Append *item* to its job's queue."""
        job_id = item.job_id
        queue = self._queues.get(job_id)
        if queue is None:
            queue = self._queues[job_id] = deque()
            insort(self._sorted_jobs, job_id)
        queue.append(item)
        cost = item.cost
        self._total += 1
        self._job_cost[job_id] = self._job_cost.get(job_id, 0.0) + cost

    def pop(self, job_id: int) -> Any:
        """Remove and return the oldest request of *job_id*."""
        queue = self._queues.get(job_id)
        if not queue:
            raise SchedulerError(f"pop from empty queue for job {job_id}")
        item = queue.popleft()
        self._total -= 1
        if not queue:
            del self._queues[job_id]
            del self._sorted_jobs[bisect_left(self._sorted_jobs, job_id)]
            # Reset the accumulator at empty so float drift cannot build
            # up across a job's lifetime.
            self._job_cost[job_id] = 0.0
        else:
            self._job_cost[job_id] -= item.cost
        return item

    def peek(self, job_id: int) -> Optional[Any]:
        """The oldest queued request of *job_id* without removing it (None if empty)."""
        queue = self._queues.get(job_id)
        return queue[0] if queue else None

    def depth(self, job_id: int) -> int:
        """Number of requests queued for *job_id*."""
        queue = self._queues.get(job_id)
        return len(queue) if queue else 0

    def queued_cost(self, job_id: int) -> float:
        """Total service cost queued for *job_id* (GIFT demand estimate)."""
        if job_id not in self._queues:
            return 0.0
        return self._job_cost[job_id]

    def nonempty_jobs(self) -> List[int]:
        """Job ids with at least one queued request, sorted."""
        return list(self._sorted_jobs)

    @property
    def total(self) -> int:
        """Total queued requests across all jobs."""
        return self._total

    def drain(self) -> List[Any]:
        """Remove and return every queued request (crash path).

        Items come back grouped by job in sorted-job order, oldest first
        within a job — a deterministic order so two identical runs drop
        identical request sequences. All bookkeeping is reset.
        """
        items: List[Any] = []
        for job_id in self._sorted_jobs:
            items.extend(self._queues[job_id])
        self._queues.clear()
        self._sorted_jobs.clear()
        self._total = 0
        self._job_cost.clear()
        return items

    def __len__(self) -> int:
        return self._total

    def __bool__(self) -> bool:
        return self._total > 0
