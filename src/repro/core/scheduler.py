"""Request schedulers: the abstract interface and ThemisIO's statistical
token scheduler (§3, §4.1).

A scheduler owns the server's pending-request queues and decides which
request an I/O worker serves next. The interface is deliberately small
so the paper's comparators (FIFO, GIFT, TBF — see
:mod:`repro.core.baselines`) plug into the same server:

- ``enqueue(request, now)`` — communicator hands over an arrived request;
- ``dequeue(now)`` — a free worker asks for the next request; ``None``
  means "nothing may run right now" (an idle cycle);
- ``on_jobs_changed(active_jobs, now)`` — controller pushes the merged
  job table whenever membership changes (token reallocation);
- ``next_eligible_time(now)`` — earliest time a blocked backlog could
  become serviceable (lets throttling schedulers tell workers when to
  retry; ``inf`` for work-conserving schedulers).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Optional, Sequence

import numpy as np

from ..errors import SchedulerError
from .jobinfo import JobInfo
from .policy import Policy
from .queues import QueueSet
from .tokens import TokenAssignment

__all__ = ["Scheduler", "StatisticalTokenScheduler"]


class Scheduler(ABC):
    """Interface every queueing discipline implements.

    The base declares empty ``__slots__`` so slot-conscious subclasses
    (the statistical token scheduler sits on the bench hot path) do not
    inherit a ``__dict__``; subclasses that declare no slots of their
    own regain one automatically.
    """

    __slots__ = ()

    name: str = "abstract"

    @abstractmethod
    def enqueue(self, request: Any, now: float) -> None:
        """Accept an arrived request."""

    @abstractmethod
    def dequeue(self, now: float) -> Optional[Any]:
        """Pick the next request to serve, or None for an idle cycle."""

    def on_jobs_changed(self, active_jobs: Sequence[JobInfo],
                        now: float) -> None:
        """React to a change in the active-job set (default: ignore)."""

    def set_assignment(self, shares: "dict[int, float]", now: float) -> None:
        """Install an explicit share map (placement-adjusted tokens from
        the controller's λ-sync, Fig. 5). Default: ignore — only the
        statistical token scheduler consumes shares."""

    @property
    @abstractmethod
    def backlog(self) -> int:
        """Number of queued requests."""

    def next_eligible_time(self, now: float) -> float:
        """Earliest time a blocked backlog becomes serviceable (inf = now/never)."""
        return float("inf")

    def drain(self) -> "list":
        """Remove and return every queued request (server crash path).

        The default covers schedulers built on a :class:`QueueSet`
        ``queues`` attribute; others override.
        """
        return self.queues.drain()


class StatisticalTokenScheduler(Scheduler):
    """ThemisIO's scheduler: statistical tokens + opportunity fairness.

    Each dequeue draws ``u ~ U[0, 1)`` and serves the job whose token
    segment contains it. With *opportunity_fair* (the ThemisIO design),
    segments are renormalised over jobs that currently have queued
    requests, so no draw is wasted and idle cycles flow to jobs with
    demand; a backlogged job still receives at least its policy share.
    With ``opportunity_fair=False`` (ablation), draws use the full
    assignment and a draw landing on an idle job's segment wastes the
    cycle — the behaviour of a mandatory bandwidth assignment.

    Jobs that have queued requests but are not yet in the token
    assignment (first requests racing the job-table update) are treated
    as holding the mean share until the controller recomputes tokens.

    The restricted (opportunity-fair) assignment is **cached**: building
    a :class:`TokenAssignment` costs numpy allocations, a sort, and a
    cumsum, but its inputs only change when the token assignment itself
    is replaced or the *membership* of the backlogged-job set changes.
    The cache is keyed by ``(assignment version, backlog signature)`` —
    a fast single-entry check against the queue set's membership
    version, backed by a per-assignment-version dict keyed on the exact
    backlogged-job tuple so recurring backlog patterns (a job draining
    and refilling) stay hits. A cached draw is bit-identical to an
    uncached rebuild: the cache stores exactly the object that
    reconstruction from the same inputs would produce.
    """

    name = "themis"

    __slots__ = ("policy", "rng", "opportunity_fair",
                 "queues", "assignment", "draws", "wasted_draws",
                 "cache_hits", "cache_misses",
                 "_assignment_version", "_restricted_cache", "_fast_key",
                 "_fast_restricted")

    #: Cap on distinct backlog signatures cached per assignment version.
    _CACHE_MAX = 256

    def __init__(self, policy: Policy, rng: np.random.Generator,
                 opportunity_fair: bool = True):
        self.policy = policy
        self.rng = rng
        self.opportunity_fair = bool(opportunity_fair)
        self.queues = QueueSet()
        self.assignment: Optional[TokenAssignment] = None
        self.draws = 0
        self.wasted_draws = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self._assignment_version = 0
        self._restricted_cache: dict = {}   # backlog tuple -> TokenAssignment
        self._fast_key: Optional[tuple] = None  # (assign ver, membership ver)
        self._fast_restricted: Optional[TokenAssignment] = None

    # -------------------------------------------------------------- interface
    def enqueue(self, request: Any, now: float) -> None:
        self.queues.push(request)

    def on_jobs_changed(self, active_jobs: Sequence[JobInfo],
                        now: float) -> None:
        self._install_shares(self.policy.shares(active_jobs))

    def set_assignment(self, shares, now: float) -> None:
        self._install_shares({j: s for j, s in shares.items() if s > 0})

    def _install_shares(self, shares: "dict[int, float]") -> None:
        """Install *shares*, skipping the (cache-clearing) reinstall when
        they are identical to the live assignment's constructor input —
        a rebuilt assignment would be bit-identical, so keeping the warm
        restricted-draw caches cannot change any draw."""
        if not shares:
            if self.assignment is not None:
                self._install(None)
            return
        if self.assignment is not None and self.assignment.same_source(shares):
            return
        self._install(TokenAssignment(shares))

    def _install(self, assignment: Optional[TokenAssignment]) -> None:
        self.assignment = assignment
        self._assignment_version += 1
        self._restricted_cache.clear()
        self._fast_key = None
        self._fast_restricted = None

    def dequeue(self, now: float) -> Optional[Any]:
        queues = self.queues
        if not queues:
            return None
        assignment = self.assignment
        if assignment is None:
            # No token info yet: serve uniformly among backlogged jobs.
            backlogged = queues.nonempty_jobs()
            job_id = backlogged[self._draw_index(len(backlogged))]
            return queues.pop(job_id)

        if not self.opportunity_fair:
            self.draws += 1
            job_id = assignment.draw(float(self.rng.random()))
            if queues.depth(job_id) == 0:
                self.wasted_draws += 1
                return None
            return queues.pop(job_id)

        self.draws += 1
        u = float(self.rng.random())
        return queues.pop(self._restricted_assignment().draw(u))

    # ------------------------------------------------------------- draw cache
    def _restricted_assignment(self) -> TokenAssignment:
        """The backlog-restricted assignment, cached across dequeues."""
        queues = self.queues
        key = (self._assignment_version, queues.membership_version)
        if key == self._fast_key:
            self.cache_hits += 1
            return self._fast_restricted
        signature = tuple(queues.nonempty_jobs())
        restricted = self._restricted_cache.get(signature)
        if restricted is None:
            self.cache_misses += 1
            restricted = self._build_restricted(signature)
            if len(self._restricted_cache) >= self._CACHE_MAX:
                self._restricted_cache.clear()
            self._restricted_cache[signature] = restricted
        else:
            self.cache_hits += 1
        self._fast_key = key
        self._fast_restricted = restricted
        return restricted

    def _build_restricted(self, backlogged: Sequence[int]) -> TokenAssignment:
        """Renormalise over backlogged jobs, giving not-yet-assigned jobs
        the mean share (identical to the uncached per-dequeue rebuild).

        *backlogged* comes from the queue set already sorted, which lets
        the fast :meth:`TokenAssignment._from_backlog` constructor skip
        sorting and validation."""
        assignment = self.assignment
        index = assignment._index
        shares_list = assignment._shares_list
        mean_share = 1.0 / max(len(index), 1)
        values = []
        for job_id in backlogged:
            i = index.get(job_id)
            if i is None:
                values.append(mean_share)
            else:
                share = shares_list[i]
                values.append(share if share > 0 else mean_share)
        return TokenAssignment._from_backlog(list(backlogged), values)

    @property
    def backlog(self) -> int:
        return self.queues.total

    def next_eligible_time(self, now: float) -> float:
        """``now`` while backlogged in the ablation mode, else ``inf``.

        In the ablation (``opportunity_fair=False``) a dequeue can waste
        its draw on an idle job's segment, so a backlogged queue may
        return ``None`` yet become serviceable on the very next draw —
        the worker should retry on its short timer, exactly as before.
        The opportunity-fair mode never returns ``None`` with backlog,
        so workers park on the work event instead (``inf``).
        """
        if self.queues and not self.opportunity_fair:
            return now
        return float("inf")

    # --------------------------------------------------------------- helpers
    def _draw_index(self, n: int) -> int:
        if n <= 0:
            raise SchedulerError("no backlogged jobs to draw from")
        return int(self.rng.integers(0, n))

    def current_shares(self) -> dict:
        """The live token assignment (job id -> share), {} if none."""
        return self.assignment.as_dict() if self.assignment else {}
