"""Fig. 9 — the user-then-size-fair composite policy.

Paper rows: user 1's jobs get 3.4 + 6.7 GB/s (node ratio 1:2), user 2's
get 3.9 + 6.0 GB/s (node ratio 4:6 = 2:3); users total 10.1 vs 9.9
GB/s; aggregate ~20 GB/s (slightly under the 21.7 GB/s ceiling due to
startup).
"""

import pytest

from repro.harness import FIGURES, run_figure


def test_fig09_user_then_size():
    rows = run_figure("fig09", scale=0.1, seed=0)
    (out,) = rows
    print("\n" + FIGURES["fig09"].report(rows))
    u1, u2 = out["user_totals"]["user1"], out["user_totals"]["user2"]
    jobs = out["job_medians"]
    print(f"user totals: {u1 / 1e9:.2f} vs {u2 / 1e9:.2f} GB/s "
          f"(paper: 10.1 vs 9.9)")
    # First tier: users split evenly.
    assert u1 / u2 == pytest.approx(1.0, abs=0.3)
    # Second tier: jobs proportional to node count within each user.
    assert jobs["2"] / jobs["1"] == pytest.approx(2.0, rel=0.35)
    assert jobs["4"] / jobs["3"] == pytest.approx(1.5, rel=0.35)
    # Aggregate close to (a touch under) the device ceiling.
    assert out["total"] > 17e9
