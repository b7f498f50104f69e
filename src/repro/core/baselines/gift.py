"""GIFT-style coupon-based throttle-and-reward scheduler (Patel et al.,
FAST '20), reconstructed inside the ThemisIO server as §5.4 describes:
"we copy the GIFT core algorithms, BSIP (Basic Synchronous I/O
Progress) and the linear programming algorithm ... and replace the I/O
resource allocation and throttling mechanisms of Linux cgroups with"
the server's request-dispatch path.

Mechanics per allocation epoch of length ``mu`` (the paper's reference
implementation uses 0.5 s):

1. **BSIP fair share** — every job active at the epoch boundary is
   budgeted an equal slice of the epoch's service capacity; a job is
   never throttled below its fair share (throttling enforces fairness
   between contenders, it does not starve).
2. **Throttle-and-reward** — capacity a job left unused last epoch was
   effectively *donated*; the donor earns coupons for it.
3. **Reward** — capacity observed spare last epoch is granted this
   epoch to jobs demanding more than fair share. Coupon holders redeem
   first: GIFT's LP (maximise Σx, 0 ≤ x_j ≤ min(headroom_j, coupons_j),
   Σx ≤ spare) has one constraint, so the **smallest claim is filled
   first** — in ascending ``(claim, job_id)`` order each redeemer takes
   ``min(claim, spare left)``, the vertex HiGHS returned on every LP of
   the Fig. 12 runs. Any remainder goes proportionally to residual demand.
4. Budgets are **hard** within the epoch, and a job arriving mid-epoch
   has no budget until the next boundary — the allocation lag ("long
   delay in I/O resource adjustment") §5.4 attributes to GIFT's mu.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ...errors import SchedulerError
from ..jobinfo import JobInfo
from ..queues import QueueSet
from ..scheduler import Scheduler
from ..tokens import ordered_sum

__all__ = ["GiftScheduler"]


class GiftScheduler(Scheduler):
    """Epoch-based fair allocation with coupon reward, hard-throttled."""

    name = "gift"

    #: growth headroom on the per-epoch demand forecast.
    DEMAND_HEADROOM = 1.5
    #: a job's budget never falls below this fraction of its fair share.
    MIN_BUDGET_FRACTION = 0.5

    def __init__(self, capacity: float, mu: float = 0.5):
        if capacity <= 0:
            raise SchedulerError(f"capacity must be positive: {capacity}")
        if mu <= 0:
            raise SchedulerError(f"mu must be positive: {mu}")
        self.capacity = float(capacity)   # bytes/second of the server
        self.mu = float(mu)               # allocation interval (seconds)
        self.queues = QueueSet()
        self._active: List[JobInfo] = []
        self._epoch_end: Optional[float] = None
        self._budgets: Dict[int, float] = {}       # bytes left this epoch
        self._fair_last: Dict[int, float] = {}     # last epoch's fair shares
        self._used_epoch: Dict[int, float] = {}    # bytes served this epoch
        self._arrived_epoch: Dict[int, float] = {}  # bytes enqueued this epoch
        self.coupons: Dict[int, float] = {}        # donated-bytes balance

    # ------------------------------------------------------------- interface
    def enqueue(self, request: Any, now: float) -> None:
        self.queues.push(request)
        if self._epoch_end is not None:
            self._arrived_epoch[request.job_id] = (
                self._arrived_epoch.get(request.job_id, 0.0) + request.cost)

    def on_jobs_changed(self, active_jobs: Sequence[JobInfo]) -> None:
        self._active = list(active_jobs)

    def dequeue(self, now: float) -> Optional[Any]:
        self._maybe_reallocate(now)
        if not self.queues:
            return None
        best_job: Optional[int] = None
        best_budget = 0.0
        for job_id in self.queues.jobs:
            budget = self._budgets.get(job_id, 0.0)
            if budget > 0 and (best_job is None or budget > best_budget):
                best_job, best_budget = job_id, budget
        if best_job is None:
            return None  # every backlogged job is throttled until the boundary
        request = self.queues.pop(best_job)
        self._budgets[best_job] = best_budget - request.cost
        self._used_epoch[best_job] = (
            self._used_epoch.get(best_job, 0.0) + request.cost)
        return request

    @property
    def backlog(self) -> int:
        return self.queues.total

    def next_eligible_time(self, now: float) -> float:
        """Throttled backlog becomes serviceable at the next epoch boundary."""
        if self.queues and self._epoch_end is not None:
            return self._epoch_end
        return float("inf")

    # ------------------------------------------------------------ allocation
    def _maybe_reallocate(self, now: float) -> None:
        if self._epoch_end is not None and now < self._epoch_end:
            return
        self._allocate(now)

    def _allocate(self, now: float) -> None:
        self._epoch_end = now + self.mu
        epoch_bytes = self.capacity * self.mu

        used, self._used_epoch = self._used_epoch, {}
        arrived, self._arrived_epoch = self._arrived_epoch, {}

        # Settle last epoch: donors bank unused fair share; spare is what
        # the device did not serve.
        for job_id, fair in self._fair_last.items():
            donated = fair - used.get(job_id, 0.0)
            if donated > 0:
                self.coupons[job_id] = self.coupons.get(job_id, 0.0) + donated
        spare = max(0.0, epoch_bytes - ordered_sum(used.values())) \
            if self._fair_last else 0.0

        job_ids = sorted({j.job_id for j in self._active}
                         | set(self.queues.jobs))
        self._budgets = {}
        self._fair_last = {}
        if not job_ids:
            return

        fair = epoch_bytes / len(job_ids)
        # Demand forecast: pending bytes plus last interval's arrivals,
        # with headroom for growth. The budget tracks min(fair, demand)
        # — GIFT throttles to its (possibly wrong) estimate — floored at
        # half the fair share so estimation error cannot starve a job.
        # Mis-estimation is GIFT's documented cost: budgets lag a job's
        # real demand by O(mu) and fluctuate with the arrival process.
        demand = {
            job_id: (self.queues.queued_cost(job_id)
                     + arrived.get(job_id, 0.0)) * self.DEMAND_HEADROOM
            for job_id in job_ids
        }
        extra = self._redeem(job_ids, demand, fair, spare)
        for job_id in job_ids:
            base = max(min(fair, demand[job_id]),
                       fair * self.MIN_BUDGET_FRACTION)
            self._budgets[job_id] = base + extra.get(job_id, 0.0)
            self._fair_last[job_id] = fair

    def _redeem(self, job_ids: List[int], demand: Dict[int, float],
                fair: float, spare: float) -> Dict[int, float]:
        """Grant last epoch's spare capacity to over-demanding jobs:
        coupon redemption, smallest claim first, then proportional to
        residual demand."""
        headroom = {j: max(0.0, demand[j] - fair) for j in job_ids}
        claimants = [j for j in job_ids if headroom[j] > 0]
        if spare <= 0 or not claimants:
            return {}
        extra: Dict[int, float] = {}

        # Redemption: the one-constraint LP's smallest claim first.
        redeemers = sorted((min(headroom[j], self.coupons[j]), j)
                           for j in claimants if self.coupons.get(j, 0.0) > 0)
        for claim, j in redeemers:
            granted = min(claim, spare)
            if granted > 0:
                extra[j] = granted
                self.coupons[j] -= granted
                spare -= granted

        residual = {j: headroom[j] - extra.get(j, 0.0) for j in claimants}
        total_residual = ordered_sum(residual.values())
        if spare > 0 and total_residual > 0:
            scale = min(1.0, spare / total_residual)
            for j in claimants:
                extra[j] = extra.get(j, 0.0) + residual[j] * scale
        return extra
