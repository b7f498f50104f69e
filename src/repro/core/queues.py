"""Per-entity request queues (§4.1's communicator queues).

Inbound I/O requests "are grouped into queues based on the fair sharing
policy ... identified by job ids". Queue items only need a ``job_id``
attribute plus a ``cost`` (bytes of service the request consumes); the
burst-buffer request type satisfies this protocol.

The queue set sits on the scheduler's per-dequeue hot path, so its
bookkeeping is incremental: the sorted nonempty-job list is maintained
with ``bisect`` on membership transitions (not re-sorted per call),
per-job cost totals are running accumulators (O(1) ``queued_cost``
for GIFT's demand estimate), and a counter of membership changes lets
a reader keep what it derived from the backlog (the opportunity-fair
cut) until the backlog's membership changes.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from typing import Any, Deque, Dict, List, Optional

from ..errors import SchedulerError

__all__ = ["QueueSet"]


class QueueSet:
    """A set of FIFO queues keyed by job id."""

    __slots__ = ("_queues", "jobs", "total", "changes", "_job_cost")

    def __init__(self):
        self._queues: Dict[int, Deque[Any]] = {}
        #: job ids with a nonempty queue, sorted (a field: the dequeue
        #: reads it per request); only this class changes it.
        self.jobs: List[int] = []
        #: total queued requests across all jobs (a field: the worker
        #: loop and the dequeue read it per request); only this class
        #: writes it.
        self.total = 0
        #: membership changes so far: a queue going nonempty, a queue
        #: going empty, a :meth:`drain`. Equal counts mean equal
        #: :attr:`jobs`. Only this class writes it.
        self.changes = 0
        self._job_cost: Dict[int, float] = {}

    def push(self, item: Any) -> None:
        """Append *item* to its job's queue."""
        job_id = item.job_id
        queue = self._queues.get(job_id)
        if queue is None:
            queue = self._queues[job_id] = deque()
            insort(self.jobs, job_id)
            self.changes += 1
        queue.append(item)
        cost = item.cost
        self.total += 1
        self._job_cost[job_id] = self._job_cost.get(job_id, 0.0) + cost

    def pop(self, job_id: int) -> Any:
        """Remove and return the oldest request of *job_id*."""
        queue = self._queues.get(job_id)
        if not queue:
            raise SchedulerError(f"pop from empty queue for job {job_id}")
        item = queue.popleft()
        self.total -= 1
        if not queue:
            del self._queues[job_id]
            del self.jobs[bisect_left(self.jobs, job_id)]
            self.changes += 1
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

    def drain(self) -> List[Any]:
        """Remove and return every queued request (crash path).

        Items come back grouped by job in sorted-job order, oldest first
        within a job — a deterministic order so two identical runs drop
        identical request sequences. All bookkeeping is reset.
        """
        items: List[Any] = []
        for job_id in self.jobs:
            items.extend(self._queues[job_id])
        self._queues.clear()
        self.jobs.clear()
        self.changes += 1
        self.total = 0
        self._job_cost.clear()
        return items

    def __len__(self) -> int:
        return self.total

    def __bool__(self) -> bool:
        return self.total > 0
