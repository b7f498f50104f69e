"""TBF-style classful token bucket filter (Qian et al., SC '17),
reconstructed inside the ThemisIO server as §5.4 describes: "we
implement the core HTC (Hard Token Compensation) and PSSB (Proportional
Sharing Spare Bandwidth) strategies and integrate them with ThemisIO's
I/O resource allocation mechanism."

Each job is a TBF class with a **user-supplied** service rate (the
paper's central critique: "it is difficult to know the exact I/O request
rate of an application, even for an experienced user"). Buckets refill
continuously and are capped at a small burst:

- a request runs when its class holds enough tokens (cost = bytes);
- **PSSB** — rate left idle by classes without backlog is shared among
  backlogged classes in proportion to their configured rates;
- **HTC** — a class starved below its guaranteed rate accumulates a
  deficit; once the deficit exceeds one burst it may dispatch on credit
  (the bucket goes negative), hard-compensating the guarantee.

Bucket granularity and burst caps make the resulting allocation
jittery — the higher throughput variance ThemisIO's Figure 12 reports.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ...errors import SchedulerError
from ..jobinfo import JobInfo
from ..queues import QueueSet
from ..scheduler import Scheduler

__all__ = ["TbfScheduler"]


class TbfScheduler(Scheduler):
    """Classful token buckets with HTC and PSSB."""

    name = "tbf"

    def __init__(self, capacity: float, rates: Optional[Dict[int, float]] = None,
                 declared_jobs: int = 2, burst_seconds: float = 0.05,
                 ceiling_factor: float = 1.75,
                 refill_quantum: float = 0.02):
        if capacity <= 0:
            raise SchedulerError(f"capacity must be positive: {capacity}")
        if declared_jobs < 1:
            raise SchedulerError("declared_jobs must be >= 1")
        if burst_seconds <= 0:
            raise SchedulerError("burst_seconds must be positive")
        if ceiling_factor < 1.0:
            raise SchedulerError("ceiling_factor must be >= 1")
        self.capacity = float(capacity)
        #: user-supplied per-class rates; unlisted classes get the default.
        self.rates: Dict[int, float] = dict(rates or {})
        self.default_rate = self.capacity / declared_jobs
        self.burst_seconds = float(burst_seconds)
        #: classful upper rate limit: a class never exceeds
        #: ``ceiling_factor x`` its configured rate even with spare
        #: bandwidth (TBF rules carry hard upper bounds for QoS) — the
        #: utilisation the rule set leaves on the table when the
        #: user-supplied rates underestimate reality.
        self.ceiling_factor = float(ceiling_factor)
        if refill_quantum < 0:
            raise SchedulerError("refill_quantum must be >= 0")
        #: tokens arrive in discrete quanta (the classful TBF grants
        #: tokens per scheduling tick, not continuously) — the source of
        #: the allocation jitter Fig. 12 measures.
        self.refill_quantum = float(refill_quantum)
        self.queues = QueueSet()
        self._tokens: Dict[int, float] = {}
        self._deficit: Dict[int, float] = {}
        self._last_refill: Optional[float] = None
        # Classes from the rule set exist before any job shows up.
        self._known: List[int] = sorted(self.rates)
        for job_id in self._known:
            self._tokens[job_id] = self._burst(job_id)
            self._deficit[job_id] = 0.0
        self.compensations = 0

    # ------------------------------------------------------------- interface
    def enqueue(self, request: Any, now: float) -> None:
        self._refill(now)
        self.queues.push(request)
        job_id = request.job_id
        if job_id not in self._tokens:
            self._tokens[job_id] = self._burst(job_id)
            self._deficit[job_id] = 0.0
            self._known = sorted(set(self._known) | {job_id})

    def on_jobs_changed(self, active_jobs: Sequence[JobInfo]) -> None:
        for info in active_jobs:
            if info.job_id not in self._tokens:
                self._tokens[info.job_id] = self._burst(info.job_id)
                self._deficit[info.job_id] = 0.0
        self._known = sorted(set(self._known) |
                             {info.job_id for info in active_jobs})

    def dequeue(self, now: float) -> Optional[Any]:
        self._refill(now)
        if not self.queues:
            return None
        chosen: Optional[int] = None
        chosen_tokens = float("-inf")
        for job_id in self.queues.nonempty_jobs():
            head = self.queues.peek(job_id)
            tokens = self._tokens.get(job_id, 0.0)
            eligible = tokens >= head.cost
            if not eligible and self._deficit.get(job_id, 0.0) > self._burst(job_id):
                eligible = True  # HTC: dispatch on credit
                self.compensations += 1
            if eligible and tokens > chosen_tokens:
                chosen, chosen_tokens = job_id, tokens
        if chosen is None:
            return None
        request = self.queues.pop(chosen)
        self._tokens[chosen] = self._tokens.get(chosen, 0.0) - request.cost
        self._deficit[chosen] = max(
            0.0, self._deficit.get(chosen, 0.0) - request.cost)
        return request

    @property
    def backlog(self) -> int:
        return self.queues.total

    def next_eligible_time(self, now: float) -> float:
        """Earliest instant a backlogged class can afford its head request."""
        if not self.queues:
            return float("inf")
        rates = self._effective_rates()
        best = float("inf")
        for job_id in self.queues.nonempty_jobs():
            head = self.queues.peek(job_id)
            missing = head.cost - self._tokens.get(job_id, 0.0)
            rate = rates.get(job_id, self.default_rate)
            if missing <= 0:
                return now
            if rate > 0:
                best = min(best, now + missing / rate)
        return best

    # --------------------------------------------------------------- buckets
    def rate_of(self, job_id: int) -> float:
        """The configured (user-supplied) rate of class *job_id*."""
        return self.rates.get(job_id, self.default_rate)

    def _burst(self, job_id: int) -> float:
        return self.rate_of(job_id) * self.burst_seconds

    def _effective_rates(self) -> Dict[int, float]:
        """PSSB: idle classes' rates are shared proportionally among
        backlogged classes."""
        backlogged = set(self.queues.nonempty_jobs())
        if not backlogged:
            return {j: self.rate_of(j) for j in self._known}
        idle_rate = sum(self.rate_of(j) for j in self._known
                        if j not in backlogged)
        busy_total = sum(self.rate_of(j) for j in sorted(backlogged))
        rates = {}
        for j in self._known:
            base = self.rate_of(j)
            if j in backlogged and busy_total > 0:
                shared = base + idle_rate * (base / busy_total)
                rates[j] = min(shared, base * self.ceiling_factor)
            else:
                rates[j] = base
        return rates

    def _refill(self, now: float) -> None:
        if self._last_refill is None:
            self._last_refill = now
            return
        dt = now - self._last_refill
        if dt <= 0:
            return
        if self.refill_quantum > 0:
            # Quantised ticks: grant whole quanta only.
            ticks = int(dt / self.refill_quantum)
            if ticks == 0:
                return
            dt = ticks * self.refill_quantum
            self._last_refill += dt
        else:
            self._last_refill = now
        rates = self._effective_rates()
        backlogged = set(self.queues.nonempty_jobs())
        for job_id in self._known:
            rate = rates.get(job_id, self.default_rate)
            burst = max(self._burst(job_id),
                        rate * self.burst_seconds)
            self._tokens[job_id] = min(
                self._tokens.get(job_id, 0.0) + rate * dt, burst)
            # Guaranteed-rate deficit only grows while the class is starved
            # (backlogged but unserved); served bytes pay it down in dequeue.
            if job_id in backlogged:
                self._deficit[job_id] = (
                    self._deficit.get(job_id, 0.0) + self.rate_of(job_id) * dt)
            else:
                self._deficit[job_id] = 0.0
