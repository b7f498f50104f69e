"""Figs. 10-11 — the three-tier group-user-size-fair composite policy.

Paper rows: groups get 9.5 vs 11.2 GB/s (near-even after startup);
inside group 2 the three users get 3.8 / 3.7 / 3.7 GB/s; user 2's three
jobs split 1.1 / 1.6 / 1.1 GB/s (node ratio 2:3:2); aggregate 20.7 GB/s
(~1 GB/s under maximum).
"""

import pytest

from repro.harness import FIGURES, run_figure


def test_fig10_group_user_size():
    rows = run_figure("fig10", scale=0.1, seed=0)
    (out,) = rows
    print("\n" + FIGURES["fig10"].report(rows))
    g1, g2 = out["group_totals"]["group1"], out["group_totals"]["group2"]
    print(f"group totals: {g1 / 1e9:.2f} vs {g2 / 1e9:.2f} GB/s "
          f"(paper: 9.5 vs 11.2)")
    # Tier 1: groups near-even.
    assert g1 / g2 == pytest.approx(1.0, abs=0.35)
    # Tier 2: group 2's three users near-even.
    u2 = out["user_totals"]["user2"]
    u3 = out["user_totals"]["user3"]
    u4 = out["user_totals"]["user4"]
    assert max(u2, u3, u4) / min(u2, u3, u4) < 1.5
    # Tier 3: user 2's jobs proportional to 2:3:2.
    j4, j5, j6 = (out["job_medians"][i] for i in ("4", "5", "6"))
    assert j5 / j4 == pytest.approx(1.5, rel=0.4)
    assert j6 / j4 == pytest.approx(1.0, abs=0.4)
    assert out["total"] > 17e9
