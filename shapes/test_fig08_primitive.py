"""Fig. 8 — primitive policies on a single ThemisIO server.

Paper rows: (a) size-fair gives the 4-node job ~3.96x the 1-node job's
throughput (17.4 vs 4.4 GB/s; 21.8 GB/s unopposed); (b) job-fair splits
the same pair nearly equally (~10.6 GB/s each); (c) user-fair gives
user A (two 2-node jobs) and user B (one 1-node job) equal totals
(10.85 vs 10.80 GB/s).
"""

import pytest

from repro.harness import FIGURES, run_figure
from repro.harness.experiments import sharing_ratio

SCALE = 0.1
SEED = 0


def test_fig08a_size_fair():
    rows = run_figure("fig08a", scale=SCALE, seed=SEED)
    (out,) = rows
    print("\n" + FIGURES["fig08a"].report(rows))
    print(f"throughput ratio: {sharing_ratio(out):.2f}x (paper: 3.96x)")
    assert 3.0 < sharing_ratio(out) < 5.5
    assert out["solo_median"] > 18e9        # ~22 GB/s device limit
    assert out["total"] > 18e9              # sharing keeps the device busy


def test_fig08b_job_fair():
    rows = run_figure("fig08b", scale=SCALE, seed=SEED)
    (out,) = rows
    print("\n" + FIGURES["fig08b"].report(rows))
    print(f"throughput ratio: {sharing_ratio(out):.2f}x (paper: ~1.0x)")
    assert 0.75 < sharing_ratio(out) < 1.35
    assert out["shared_medians"]["2"] > 0.35 * out["total"]


def test_fig08c_user_fair():
    rows = run_figure("fig08c", scale=SCALE, seed=SEED)
    (out,) = rows
    print("\n" + FIGURES["fig08c"].report(rows))
    a, b = out["user_totals"]["userA"], out["user_totals"]["userB"]
    print(f"user totals: A={a / 1e9:.2f} GB/s, B={b / 1e9:.2f} GB/s "
          f"(paper: 10.85 vs 10.80)")
    assert a / b == pytest.approx(1.0, abs=0.3)
    # User A's two equal jobs split A's half evenly.
    assert (out["job_medians"]["1"] / out["job_medians"]["2"]
            == pytest.approx(1.0, abs=0.4))
