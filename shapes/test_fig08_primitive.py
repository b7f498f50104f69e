"""Fig. 8 — primitive policies on a single ThemisIO server.

Paper rows: (a) size-fair gives the 4-node job ~3.96x the 1-node job's
throughput (17.4 vs 4.4 GB/s; 21.8 GB/s unopposed); (b) job-fair splits
the same pair nearly equally (~10.6 GB/s each); (c) user-fair gives
user A (two 2-node jobs) and user B (one 1-node job) equal totals
(10.85 vs 10.80 GB/s).
"""

import pytest

from repro.harness import fig08_primitive, fig08c_user_fair

SCALE = 0.1
SEED = 0


def test_fig08a_size_fair():
    out = fig08_primitive("size-fair", scale=SCALE, seed=SEED)
    print("\n" + out.report())
    print(f"throughput ratio: {out.ratio:.2f}x (paper: 3.96x)")
    assert 3.0 < out.ratio < 5.5
    assert out.solo_median > 18e9           # ~22 GB/s device limit
    assert out.peak_throughput > 18e9       # sharing keeps the device busy


def test_fig08b_job_fair():
    out = fig08_primitive("job-fair", scale=SCALE, seed=SEED)
    print("\n" + out.report())
    print(f"throughput ratio: {out.ratio:.2f}x (paper: ~1.0x)")
    assert 0.75 < out.ratio < 1.35
    assert out.shared_medians[2] > 0.35 * out.peak_throughput


def test_fig08c_user_fair():
    out = fig08c_user_fair(scale=SCALE, seed=SEED)
    print("\n" + out.report())
    a, b = out.user_totals["userA"], out.user_totals["userB"]
    print(f"user totals: A={a / 1e9:.2f} GB/s, B={b / 1e9:.2f} GB/s "
          f"(paper: 10.85 vs 10.80)")
    assert a / b == pytest.approx(1.0, abs=0.3)
    # User A's two equal jobs split A's half evenly.
    assert out.job_medians[1] / out.job_medians[2] == pytest.approx(1.0,
                                                                    abs=0.4)
