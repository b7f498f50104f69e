"""Request schedulers: the abstract interface and ThemisIO's statistical
token scheduler (§3, §4.1).

A scheduler owns the server's pending-request queues and decides which
request an I/O worker serves next. The interface is deliberately small
so the paper's comparators (FIFO, GIFT, TBF — see
:mod:`repro.core.baselines`) plug into the same server:

- ``enqueue(request, now)`` — communicator hands over an arrived request;
- ``dequeue(now)`` — a free worker asks for the next request; ``None``
  means "nothing may run right now" (an idle cycle);
- ``defer_tokens(derive)`` — the controller hands over a token
  derivation whose inputs it captured at a job-set change; the
  statistical token scheduler runs it at the first draw that reads the
  assignment, every other scheduler at once;
- ``on_jobs_changed(active_jobs)`` / ``set_assignment(shares)`` — what a
  derivation installs: the merged active-job set, or an explicit
  placement-adjusted share map (Fig. 5);
- ``policy_shares(active_jobs)`` — the policy's global shares (Eq. 1)
  that a derivation projects onto the servers, ``{}`` for a discipline
  without a policy;
- ``next_eligible_time(now)`` — earliest time a blocked backlog could
  become serviceable (lets throttling schedulers tell workers when to
  retry; ``inf`` for work-conserving schedulers).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_right
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

from ..errors import SchedulerError
from .jobinfo import JobInfo
from .matrix import ShareChain
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

    def defer_tokens(self, derive: Callable[[], None]) -> None:
        """Take a token derivation captured at a job-set change.

        Default: run it now. A comparator takes in the job set at the
        change itself (TBF opens a bucket that its next refill tops up).
        """
        derive()

    def on_jobs_changed(self, active_jobs: Sequence[JobInfo]) -> None:
        """React to a change in the active-job set (default: ignore)."""

    def set_assignment(self, shares: "dict[int, float]") -> None:
        """Install an explicit share map (placement-adjusted tokens from
        the controller's λ-sync, Fig. 5). Default: ignore — only the
        statistical token scheduler consumes shares."""

    def policy_shares(self,
                      active_jobs: Sequence[JobInfo]) -> "dict[int, float]":
        """Global policy shares of *active_jobs* (Eq. 1). Default: ``{}``
        — the comparator disciplines have no share concept."""
        return {}

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

    The opportunity-fair cut of [0, 1] over the backlogged jobs
    (:meth:`TokenAssignment.cut`) is kept across draws, for the
    assignment it was cut from (by identity) and the backlog membership
    it was cut over (:attr:`QueueSet.changes`); it is cut again only
    when one of the two has changed. A lone backlogged job is served
    before the cut is looked at. The uniform ``u`` is drawn first
    either way, so the random stream is the one a fresh cut per draw
    would consume.

    Tokens are derived on demand: :meth:`defer_tokens` holds at most one
    pending derivation (a later change replaces it), and the first
    dequeue or :attr:`assignment` read after it runs it once. The
    derivation is pure over inputs captured at the change, so every draw
    sees the assignment an install at the change would have left.

    Eq. 1 runs through one :class:`ShareChain` per scheduler, which
    evaluates again only the scopes a job-set change touched. It holds
    no model state (its result equals a fresh evaluation whatever it
    holds), so a crash need not wipe it.
    """

    name = "themis"

    __slots__ = ("policy", "rng", "opportunity_fair", "queues", "_chain",
                 "_assignment", "_pending", "_cut", "_cut_of", "_cut_at",
                 "draws", "wasted_draws")

    def __init__(self, policy: Policy, rng: np.random.Generator,
                 opportunity_fair: bool = True):
        self.policy = policy
        self.rng = rng
        self.opportunity_fair = bool(opportunity_fair)
        self.queues = QueueSet()
        self._chain = ShareChain(policy.levels)
        self._assignment: Optional[TokenAssignment] = None
        self._pending: Optional[Callable[[], None]] = None
        # The opportunity-fair cut, the assignment it was cut from and
        # the ``queues.changes`` it was cut at.
        self._cut: List[float] = []
        self._cut_of: Optional[TokenAssignment] = None
        self._cut_at = -1
        self.draws = 0
        self.wasted_draws = 0

    # -------------------------------------------------------------- interface
    def enqueue(self, request: Any, now: float) -> None:
        self.queues.push(request)

    def defer_tokens(self, derive: Callable[[], None]) -> None:
        # Every reader runs the pending derivation first, so the
        # installed assignment is dead from here on: free it now.
        self._pending = derive
        self._assignment = self._cut_of = None

    def on_jobs_changed(self, active_jobs: Sequence[JobInfo]) -> None:
        self._install(self._chain.update(active_jobs))

    def policy_shares(self,
                      active_jobs: Sequence[JobInfo]) -> "dict[int, float]":
        return self._chain.update(active_jobs)

    def set_assignment(self, shares) -> None:
        """Install *shares* as they are: a Fig. 5 projection row, whose
        cells are all positive (a zero share would still count toward
        the mean share a re-cut gives an unlisted job)."""
        self._install(shares)

    def _install(self, shares: "dict[int, float]") -> None:
        # Installing ends the pending derivation, the running one
        # included, so each runs once.
        self._pending = None
        self._assignment = TokenAssignment(shares) if shares else None

    @property
    def assignment(self) -> Optional[TokenAssignment]:
        """The live token assignment (derived first if a change is
        pending), None before any job is known."""
        if self._pending is not None:
            self._pending()
        return self._assignment

    def dequeue(self, now: float) -> Optional[Any]:
        queues = self.queues
        if not queues.total:
            return None
        if self._pending is not None:
            self._pending()
        assignment = self._assignment
        if assignment is None:
            # No token info yet: serve uniformly among backlogged jobs.
            backlogged = queues.jobs
            job_id = backlogged[self._draw_index(len(backlogged))]
            return queues.pop(job_id)

        self.draws += 1
        u = float(self.rng.random())
        if self.opportunity_fair:
            backlogged = queues.jobs
            if len(backlogged) == 1:
                return queues.pop(backlogged[0])
            if assignment is not self._cut_of \
                    or queues.changes != self._cut_at:
                self._cut = assignment.cut(backlogged)
                self._cut_of = assignment
                self._cut_at = queues.changes
            return queues.pop(backlogged[bisect_right(self._cut, u)])
        job_id = assignment.draw(u)
        if queues.depth(job_id) == 0:
            self.wasted_draws += 1
            return None
        return queues.pop(job_id)

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
        assignment = self.assignment
        return assignment.as_dict() if assignment else {}
