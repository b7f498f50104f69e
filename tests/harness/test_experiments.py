"""Miniature versions of every figure experiment: shape assertions only.

These run the same code paths as the full-scale checks under ``shapes/``
at tiny scales, so the suite stays fast while covering the experiment
logic end-to-end.
"""

import pytest

from repro.harness import (fig08_primitive, fig08c_user_fair,
                           fig09_user_then_size, fig12_baselines,
                           fig14_lambda)
from repro.harness import ScalingResult
from repro.harness.experiments import _run_app, sync_cost_cell
from repro.units import MB
from repro.workloads import AppProfile


SCALE = 0.05  # 3 s timeline


class TestFig08:
    def test_size_fair_ratio_near_four(self):
        out = fig08_primitive("size-fair", scale=SCALE, seed=3)
        assert 3.0 < out.ratio < 5.5
        assert out.report()  # renders

    def test_job_fair_ratio_near_one(self):
        out = fig08_primitive("job-fair", scale=SCALE, seed=3)
        assert 0.7 < out.ratio < 1.4

    def test_solo_median_near_device_limit(self):
        out = fig08_primitive("job-fair", scale=SCALE, seed=3)
        assert out.solo_median > 18e9  # ~22 GB/s device

    def test_user_fair_balances_users(self):
        out = fig08c_user_fair(scale=SCALE, seed=3)
        a = out.user_totals["userA"]
        b = out.user_totals["userB"]
        assert a / b == pytest.approx(1.0, abs=0.35)
        # User A's two equal jobs split its half evenly.
        assert out.job_medians[1] / out.job_medians[2] == pytest.approx(
            1.0, abs=0.4)


class TestFig09:
    def test_user_then_size_fair_structure(self):
        out = fig09_user_then_size(scale=SCALE, seed=3)
        u1 = out.user_totals["user1"]
        u2 = out.user_totals["user2"]
        assert u1 / u2 == pytest.approx(1.0, abs=0.35)
        # Within user 1 the jobs are 1:2 by node count.
        assert out.job_medians[2] / out.job_medians[1] == pytest.approx(
            2.0, rel=0.4)
        # Within user 2 the jobs are 4:6.
        assert out.job_medians[4] / out.job_medians[3] == pytest.approx(
            1.5, rel=0.4)


class TestFig12:
    def test_relative_ordering(self):
        out = fig12_baselines(scale=SCALE, seed=3)
        themis = out.rows["themis"]
        gift = out.rows["gift"]
        tbf = out.rows["tbf"]
        # ThemisIO's sustained peak beats both comparators.
        assert themis.solo_median >= gift.solo_median - 1e9
        assert themis.solo_median > tbf.solo_median
        # ThemisIO's job 2 gets at least its fair share during sharing.
        assert themis.shared_medians[2] > 0.35 * themis.peak_throughput
        assert out.themis_advantage()["tbf"] > 0.05

    def test_latency_to_fair_sharing(self):
        out = fig12_baselines(scale=SCALE, seed=3)
        themis_latency = out.rows["themis"].time_to_fair_share(2)
        gift_latency = out.rows["gift"].time_to_fair_share(2)
        assert themis_latency is not None
        # GIFT budgets a new job only at the next epoch boundary.
        if gift_latency is not None:
            assert themis_latency <= gift_latency

    def test_time_to_fair_share_none_when_absent(self):
        out = fig12_baselines(scale=SCALE, seed=3)
        assert out.rows["themis"].time_to_fair_share(99) is None


class TestApplications:
    def _mini(self, **kw):
        base = dict(name="mini", nodes=8, steps=6, compute_per_step=0.02,
                    io_every=2, io_bytes=24 * MB, io_request=2 * MB,
                    io_op="write")
        base.update(kw)
        return AppProfile(**base)

    def test_fifo_interference_slows_the_app(self):
        profile = self._mini()
        base = _run_app(profile, "fifo", False, seed=0)
        fifo = _run_app(profile, "fifo", True, seed=0)
        assert fifo > base * 1.05

    def test_size_fair_bounds_the_slowdown(self):
        profile = self._mini()
        base = _run_app(profile, "fifo", False, seed=0)
        fifo = _run_app(profile, "fifo", True, seed=0)
        fair = _run_app(profile, "size-fair", True, seed=0)
        assert fair < fifo
        # Bounded well below the FIFO damage (paper: 59-99.8% reduction).
        assert (fair - base) < 0.5 * (fifo - base)


class TestFig14:
    def test_lambda_sync_reaches_fairness(self):
        out = fig14_lambda(lambdas=(0.05,), seed=0)
        conv = out.convergence[0.05]
        assert conv is not None
        assert conv <= 3


class TestFig07:
    def test_efficiencies_populated_without_report(self):
        out = ScalingResult(server_counts=[1, 2, 4],
                            rows={"fifo-write": [10.0, 18.0, 32.0]})
        assert out.efficiencies == {
            "fifo-write": pytest.approx([1.0, 0.9, 0.8])}
        with pytest.raises(AttributeError):
            out.efficiencies = {}


class TestSyncCostLadder:
    """EXPERIMENTS.md's λ-sync cost ladder rows, pinned exactly: they
    are simulated wire counts, not host measurements."""

    #: (n_servers, fanout) -> (root-in B, total B, nominal B, messages,
    #: peak fan-in), per epoch
    ROWS = {
        (16, 0): (46_080, 47_520, 92_640, 60, 15),
        (16, 8): (22_496, 45_440, 92_640, 60, 8),
        (64, 0): (193_536, 199_584, 389_088, 252, 63),
        (64, 8): (22_496, 185_024, 389_088, 252, 8),
    }

    @pytest.mark.parametrize("n_servers,fanout", sorted(ROWS))
    def test_ladder_rows(self, n_servers, fanout):
        out = sync_cost_cell({"n_servers": n_servers, "fanout": fanout,
                              "epochs": 6})
        assert (out["root_in_bytes_per_epoch"],
                out["payload_bytes_per_epoch"],
                out["nominal_bytes_per_epoch"],
                out["messages_per_epoch"],
                out["max_fanin"]) == self.ROWS[n_servers, fanout]
        assert out["epochs"] == 6
