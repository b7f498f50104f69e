"""Miniature versions of every figure experiment: shape assertions only.

These run the same code paths as the full-scale checks under ``shapes/``
at tiny scales, so the suite stays fast while covering the experiment
logic end-to-end.
"""

import pytest

from repro.harness import FIGURES, run_figure
from repro.harness.experiments import (app_cell, efficiencies, sharing_cell,
                                       sharing_ratio, sync_cost_cell,
                                       themis_advantage)
from repro.units import MB


SCALE = 0.05  # 3 s timeline


class TestFig08:
    def test_size_fair_ratio_near_four(self):
        rows = run_figure("fig08a", scale=SCALE, seed=3)
        assert 3.0 < sharing_ratio(rows[0]) < 5.5
        assert FIGURES["fig08a"].report(rows)  # renders

    def test_job_fair_ratio_near_one(self):
        (out,) = run_figure("fig08b", scale=SCALE, seed=3)
        assert 0.7 < sharing_ratio(out) < 1.4

    def test_solo_median_near_device_limit(self):
        (out,) = run_figure("fig08b", scale=SCALE, seed=3)
        assert out["solo_median"] > 18e9  # ~22 GB/s device

    def test_user_fair_balances_users(self):
        (out,) = run_figure("fig08c", scale=SCALE, seed=3)
        a = out["user_totals"]["userA"]
        b = out["user_totals"]["userB"]
        assert a / b == pytest.approx(1.0, abs=0.35)
        # User A's two equal jobs split its half evenly.
        assert out["job_medians"]["1"] / out["job_medians"]["2"] == \
            pytest.approx(1.0, abs=0.4)


class TestFig09:
    def test_user_then_size_fair_structure(self):
        (out,) = run_figure("fig09", scale=SCALE, seed=3)
        u1 = out["user_totals"]["user1"]
        u2 = out["user_totals"]["user2"]
        assert u1 / u2 == pytest.approx(1.0, abs=0.35)
        jobs = out["job_medians"]
        # Within user 1 the jobs are 1:2 by node count.
        assert jobs["2"] / jobs["1"] == pytest.approx(2.0, rel=0.4)
        # Within user 2 the jobs are 4:6.
        assert jobs["4"] / jobs["3"] == pytest.approx(1.5, rel=0.4)


class TestFig12:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_figure("fig12", scale=SCALE, seed=3)

    def test_relative_ordering(self, rows):
        themis, gift, tbf = rows
        # ThemisIO's sustained peak beats both comparators.
        assert themis["solo_median"] >= gift["solo_median"] - 1e9
        assert themis["solo_median"] > tbf["solo_median"]
        # ThemisIO's job 2 gets at least its fair share during sharing.
        assert themis["shared_medians"]["2"] > 0.35 * themis["total"]
        assert themis_advantage(rows)["tbf"] > 0.05

    def test_latency_to_fair_sharing(self, rows):
        themis, gift, _ = rows
        assert themis["time_to_fair_share"] is not None
        # GIFT budgets a new job only at the next epoch boundary.
        if gift["time_to_fair_share"] is not None:
            assert themis["time_to_fair_share"] <= gift["time_to_fair_share"]

    def test_time_to_fair_share_none_when_absent(self):
        point = {"policy": "job-fair", "nodes1": 1, "scale": 0.02}
        # Not measured unless a threshold asks for it ...
        assert "time_to_fair_share" not in sharing_cell(point)
        # ... and None when job 2 never sustains the asked-for fraction.
        assert sharing_cell(dict(point, threshold=10.0))[
            "time_to_fair_share"] is None


class TestApplications:
    def _mini(self, policy, background):
        profile = dict(name="mini", nodes=8, steps=6, compute_per_step=0.02,
                       io_every=2, io_bytes=24 * MB, io_request=2 * MB,
                       io_op="write")
        return app_cell({"app": profile, "policy": policy,
                         "background": background})["time_to_solution"]

    def test_fifo_interference_slows_the_app(self):
        assert self._mini("fifo", True) > self._mini("fifo", False) * 1.05

    def test_size_fair_bounds_the_slowdown(self):
        base = self._mini("fifo", False)
        fifo = self._mini("fifo", True)
        fair = self._mini("size-fair", True)
        assert fair < fifo
        # Bounded well below the FIFO damage (paper: 59-99.8% reduction).
        assert (fair - base) < 0.5 * (fifo - base)


class TestFig14:
    def test_lambda_sync_reaches_fairness(self):
        (out,) = run_figure("fig14", lambdas=(0.05,), seed=0)
        assert out["intervals_to_fairness"] is not None
        assert out["intervals_to_fairness"] <= 3


class TestFig07:
    def test_efficiencies_populated_without_report(self):
        rows = [{"policy": "fifo", "mode": "write", "n_servers": n,
                 "throughput": rate}
                for n, rate in ((1, 10.0), (2, 18.0), (4, 32.0))]
        assert efficiencies(rows) == {
            "fifo-write": pytest.approx([1.0, 0.9, 0.8])}


class TestSyncCostLadder:
    """EXPERIMENTS.md's λ-sync cost ladder rows, pinned exactly: they
    are simulated wire counts, not host measurements."""

    #: (n_servers, fanout) -> (root-in B, total B, messages, peak
    #: fan-in), per epoch
    ROWS = {
        (16, 0): (46_080, 92_640, 60, 15),
        (16, 8): (24_576, 92_640, 60, 8),
        (64, 0): (193_536, 389_088, 252, 63),
        (64, 8): (24_576, 389_088, 252, 8),
    }

    @pytest.mark.parametrize("n_servers,fanout", sorted(ROWS))
    def test_ladder_rows(self, n_servers, fanout):
        out = sync_cost_cell({"n_servers": n_servers, "fanout": fanout,
                              "epochs": 6})
        assert (out["root_in_bytes_per_epoch"],
                out["bytes_per_epoch"],
                out["messages_per_epoch"],
                out["max_fanin"]) == self.ROWS[n_servers, fanout]
        assert out["epochs"] == 6
