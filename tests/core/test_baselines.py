"""Tests for the FIFO, GIFT, and TBF comparator schedulers."""

from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FifoScheduler, GiftScheduler, JobInfo, TbfScheduler
from repro.errors import SchedulerError


@dataclass
class Req:
    job_id: int
    cost: float = 1.0
    seq: int = 0


def job(jid, size=1):
    return JobInfo(job_id=jid, user=f"u{jid}", size=size)


class TestFifo:
    def test_strict_arrival_order_across_jobs(self):
        s = FifoScheduler()
        s.enqueue(Req(1, seq=0), 0.0)
        s.enqueue(Req(2, seq=1), 0.0)
        s.enqueue(Req(1, seq=2), 0.0)
        assert [s.dequeue(0.0).seq for _ in range(3)] == [0, 1, 2]

    def test_empty_returns_none(self):
        assert FifoScheduler().dequeue(0.0) is None

    def test_backlog(self):
        s = FifoScheduler()
        s.enqueue(Req(1), 0.0)
        assert s.backlog == 1

    def test_drain_preserves_arrival_order(self):
        s = FifoScheduler()
        for i in range(3):
            s.enqueue(Req(1, seq=i), 0.0)
        assert [r.seq for r in s.drain()] == [0, 1, 2]
        assert s.backlog == 0

    def test_small_job_blocks_big_job(self):
        # The paper's motivating pathology: a burst from job 1 queued
        # first delays job 2's single request behind the whole burst.
        s = FifoScheduler()
        for i in range(100):
            s.enqueue(Req(1, seq=i), 0.0)
        s.enqueue(Req(2, seq=999), 0.0)
        order = [s.dequeue(0.0) for _ in range(101)]
        assert order[-1].job_id == 2


class TestGift:
    def test_invalid_params(self):
        with pytest.raises(SchedulerError):
            GiftScheduler(capacity=0)
        with pytest.raises(SchedulerError):
            GiftScheduler(capacity=1, mu=0)

    def test_equal_epoch_allocation_between_backlogged_jobs(self):
        s = GiftScheduler(capacity=100.0, mu=1.0)
        s.on_jobs_changed([job(1), job(2)])
        for _ in range(100):
            s.enqueue(Req(1, cost=1.0), 0.0)
            s.enqueue(Req(2, cost=1.0), 0.0)
        served = {1: 0, 2: 0}
        while True:
            r = s.dequeue(0.0)
            if r is None:
                break
            served[r.job_id] += 1
        # Epoch capacity 100 bytes, split evenly: ~50 each.
        assert served[1] == pytest.approx(50, abs=2)
        assert served[2] == pytest.approx(50, abs=2)

    def test_hard_throttle_idles_with_backlog(self):
        # One job with demand far above the epoch capacity: once its
        # budget is spent, dequeue returns None despite backlog.
        s = GiftScheduler(capacity=10.0, mu=1.0)
        s.on_jobs_changed([job(1), job(2)])
        for _ in range(100):
            s.enqueue(Req(1, cost=1.0), 0.0)
        while s.dequeue(0.0) is not None:
            pass
        assert s.backlog > 0
        assert s.next_eligible_time(0.0) == pytest.approx(1.0)

    def test_budget_resets_at_next_epoch(self):
        s = GiftScheduler(capacity=10.0, mu=1.0)
        s.on_jobs_changed([job(1)])
        for _ in range(30):
            s.enqueue(Req(1, cost=1.0), 0.0)
        n0 = 0
        while s.dequeue(0.0) is not None:
            n0 += 1
        n1 = 0
        while s.dequeue(1.5) is not None:
            n1 += 1
        assert n0 == 10 and n1 == 10

    def test_never_throttled_below_fair_share(self):
        # A solo active job is budgeted the full epoch capacity at once —
        # GIFT throttles contenders, it does not starve.
        s = GiftScheduler(capacity=100.0, mu=1.0)
        s.on_jobs_changed([job(1)])
        for _ in range(200):
            s.enqueue(Req(1, cost=1.0), 0.0)
        served = 0
        while s.dequeue(0.0) is not None:
            served += 1
        assert served == 100

    def test_donor_earns_coupons_at_settlement(self):
        s = GiftScheduler(capacity=100.0, mu=1.0)
        s.on_jobs_changed([job(1), job(2)])
        # Epoch 1: job 1 uses only 5 of its 50-byte fair share.
        s.enqueue(Req(1, cost=5.0), 0.0)
        for _ in range(100):
            s.enqueue(Req(2, cost=1.0), 0.0)
        while s.dequeue(0.0) is not None:
            pass
        assert s.coupons.get(1, 0.0) == 0.0  # settled only at the boundary
        s.dequeue(1.0)  # epoch 2 boundary: settle
        assert s.coupons.get(1, 0.0) == pytest.approx(45.0)

    def test_spare_flows_to_demanding_job_next_epoch(self):
        s = GiftScheduler(capacity=100.0, mu=1.0)
        s.on_jobs_changed([job(1), job(2)])
        s.enqueue(Req(1, cost=5.0), 0.0)
        for _ in range(200):
            s.enqueue(Req(2, cost=1.0), 0.0)
        served_e1 = {1: 0.0, 2: 0.0}
        while True:
            r = s.dequeue(0.0)
            if r is None:
                break
            served_e1[r.job_id] += r.cost
        # Epoch 1 is hard-fair: job 2 capped at its 50-byte share.
        assert served_e1[2] == pytest.approx(50.0, abs=1.0)
        # Epoch 2: last epoch's observed spare (45) is granted to the
        # over-demanding job on top of fair share.
        served_e2 = {1: 0.0, 2: 0.0}
        while True:
            r = s.dequeue(1.0)
            if r is None:
                break
            served_e2[r.job_id] += r.cost
        assert served_e2[2] == pytest.approx(95.0, abs=2.0)

    def test_coupon_redemption_fills_smallest_claim_first(self):
        s = GiftScheduler(capacity=100.0, mu=1.0)
        s.on_jobs_changed([job(1), job(2)])
        # Epoch 1: job 1 donates 45 of its 50-byte share; job 2 is capped
        # at 50, with 45 bytes left queued.
        s.enqueue(Req(1, cost=5.0), 0.0)
        for _ in range(95):
            s.enqueue(Req(2, cost=1.0), 0.0)
        while s.dequeue(0.0) is not None:
            pass
        # Job 2 also holds 30 coupon bytes banked in an earlier epoch.
        s.coupons[2] = 30.0
        # Epoch 2: both over-demand. Job 1 claims min(250 headroom, 45
        # coupons) = 45, job 2 min(67.5 - 50, 30) = 17.5: together more
        # than last epoch's 45 spare bytes. Job 2's smaller claim is met
        # in full and job 1 redeems the remaining 27.5.
        for _ in range(200):
            s.enqueue(Req(1, cost=1.0), 1.0)
        served = {1: 0.0, 2: 0.0}
        while True:
            r = s.dequeue(1.0)
            if r is None:
                break
            served[r.job_id] += r.cost
        assert s.coupons == {1: 45.0 - 27.5, 2: 30.0 - 17.5}
        assert served == {1: 78.0, 2: 45.0}  # budgets 77.5 and 67.5

    #: (bounds by job id, spare, HiGHS's grant): every redemption LP of
    #: the Fig. 12 runs (``figure fig12`` at scales 0.05 / 0.25 / 1 and
    #: ``shapes/test_fig12_baselines.py``) whose claims outgrew the
    #: spare, as the HiGHS solver answered it while GIFT still called
    #: one.
    LP_VERTICES = [
        ([1_085_000_000.0, 140_000_000.0], 679_934_464.0,
         [539_934_464.0, 140_000_000.0]),
        ([1_235_000_000.0, 140_000_000.0], 479_934_464.0,
         [339_934_464.0, 140_000_000.0]),
        ([1_789_868_928.0, 500_000_000.0], 1_700_000_000.0,
         [1_200_000_000.0, 500_000_000.0]),
        ([11_300_000_000.0, 9_965_000_000.0], 890_000_000.0,
         [0.0, 890_000_000.0]),
    ]

    @staticmethod
    def _grant(bounds, spare, job_ids=None, binding="headroom"):
        """``_redeem``'s grant to redeemers whose claims are *bounds*
        (job id -> bytes), each capped by its headroom (the coupon
        balance is larger) or by its coupon balance."""
        s = GiftScheduler(capacity=1.0)
        if binding == "headroom":
            demand = dict(bounds)
            s.coupons = {j: 2 * b for j, b in bounds.items()}
        else:
            demand = {j: 2 * b for j, b in bounds.items()}
            s.coupons = dict(bounds)
        before = dict(s.coupons)
        extra = s._redeem(sorted(bounds) if job_ids is None else job_ids,
                          demand, fair=0.0, spare=spare)
        x = {j: extra.get(j, 0.0) for j in bounds}
        assert s.coupons == {j: before[j] - x[j] for j in bounds}
        return x

    @pytest.mark.parametrize("binding", ["headroom", "coupons"])
    @pytest.mark.parametrize("bounds,spare,highs", LP_VERTICES)
    def test_grant_is_the_vertex_highs_returned(self, bounds, spare, highs,
                                                binding):
        bounds = dict(enumerate(bounds, start=1))
        assert self._grant(bounds, spare, binding=binding) == dict(
            enumerate(highs, start=1))

    @settings(max_examples=300)
    @given(claims=st.lists(st.one_of(st.integers(1, 8),
                                     st.integers(1, 10**10)),
                           min_size=1, max_size=6),
           spare=st.one_of(st.integers(1, 16), st.integers(1, 6 * 10**10)),
           data=st.data())
    def test_grant_fills_smallest_claim_first(self, claims, spare, data):
        bounds = {j: float(b) for j, b in enumerate(claims, start=1)}
        x = self._grant(bounds, float(spare))
        assert sum(x.values()) == min(sum(bounds.values()), spare)
        assert all(0.0 <= x[j] <= bounds[j] for j in bounds)
        # In (claim, job id) order: full claims, then at most one partly
        # filled claim, then nothing.
        order = sorted(bounds, key=lambda j: (bounds[j], j))
        unmet = [k for k, j in enumerate(order) if x[j] < bounds[j]]
        if unmet:
            assert all(x[j] == 0.0 for j in order[unmet[0] + 1:])
        shuffled = data.draw(st.permutations(sorted(bounds)))
        assert self._grant(bounds, float(spare), job_ids=shuffled) == x

    def test_new_job_waits_for_epoch_boundary(self):
        # The adjustment lag: a job arriving mid-epoch has no budget.
        s = GiftScheduler(capacity=100.0, mu=1.0)
        s.on_jobs_changed([job(1)])
        s.enqueue(Req(1, cost=1.0), 0.0)
        assert s.dequeue(0.0) is not None  # epoch starts, job 1 budgeted
        s.on_jobs_changed([job(1), job(2)])
        s.enqueue(Req(2, cost=1.0), 0.5)
        assert s.dequeue(0.5) is None       # job 2 throttled until t=1.0
        assert s.dequeue(1.0) is not None   # budgeted at the boundary


class TestTbf:
    def test_invalid_params(self):
        with pytest.raises(SchedulerError):
            TbfScheduler(capacity=0)
        with pytest.raises(SchedulerError):
            TbfScheduler(capacity=1, declared_jobs=0)
        with pytest.raises(SchedulerError):
            TbfScheduler(capacity=1, burst_seconds=0)

    def test_rate_limits_throughput(self):
        # Rate 10 B/s, burst 0.5 s: over 10 s the class serves ~100 bytes.
        s = TbfScheduler(capacity=20.0, rates={1: 10.0}, burst_seconds=0.5)
        s.on_jobs_changed([job(1)])
        served = 0.0
        t = 0.0
        while t < 10.0:
            s.enqueue(Req(1, cost=1.0), t)
            r = s.dequeue(t)
            if r is not None:
                served += r.cost
            t += 0.05
        assert 80.0 < served < 125.0

    def test_insufficient_tokens_blocks(self):
        s = TbfScheduler(capacity=10.0, rates={1: 1.0}, burst_seconds=1.0)
        s.on_jobs_changed([job(1)])
        s.enqueue(Req(1, cost=5.0), 0.0)
        s.dequeue(0.0)  # burst covers the first; drain it
        s.enqueue(Req(1, cost=5.0), 0.0)
        assert s.dequeue(0.0) is None  # tokens exhausted
        eta = s.next_eligible_time(0.0)
        assert 0.0 < eta < float("inf")
        assert s.dequeue(eta + 5.0) is not None  # refilled by then

    def test_pssb_idle_rate_flows_to_backlogged_class(self):
        # Two declared classes at 5 B/s each; class 2 idle -> class 1
        # effectively refills at ~10 B/s.
        s = TbfScheduler(capacity=10.0, rates={1: 5.0, 2: 5.0},
                         burst_seconds=0.2)
        s.on_jobs_changed([job(1), job(2)])
        served = 0.0
        t = 0.0
        while t < 10.0:
            s.enqueue(Req(1, cost=1.0), t)
            r = s.dequeue(t)
            if r is not None:
                served += r.cost
            t += 0.05
        assert served > 75.0  # well above the 5 B/s solo guarantee

    def test_htc_compensates_starved_class(self):
        # A class starved past one burst's worth of guaranteed bytes may
        # dispatch on credit.
        s = TbfScheduler(capacity=10.0, rates={1: 10.0}, burst_seconds=0.1)
        s.on_jobs_changed([job(1)])
        s.enqueue(Req(1, cost=100.0), 0.0)  # cost far above any bucket
        assert s.dequeue(0.0) is None
        # After 2 s starved, deficit (20) exceeds burst (1): HTC kicks in.
        r = s.dequeue(2.0)
        assert r is not None
        assert s.compensations >= 1

    def test_default_rate_from_declared_jobs(self):
        s = TbfScheduler(capacity=100.0, declared_jobs=4)
        assert s.rate_of(7) == pytest.approx(25.0)

    def test_next_eligible_empty_is_inf(self):
        s = TbfScheduler(capacity=10.0)
        assert s.next_eligible_time(0.0) == float("inf")
