"""Fig. 12 — ThemisIO vs the GIFT and TBF sharing algorithms.

Paper rows: ThemisIO sustains 19.8 GB/s peak, 13.5% / 13.7% higher than
GIFT / TBF; job 2's shared throughput 10.2 GB/s is 7.9% / 14.7% higher;
job 2's stddev 504 MB/s vs GIFT 626 and TBF 845.

Our reproduction: ThemisIO's peak and job-2 throughput lead both
comparators (TBF trails on peak via its classful rate ceilings, GIFT
via demand-forecast throttling); GIFT shows the worst variance. One
deviation, recorded in EXPERIMENTS.md: our byte-granular TBF is
*smoother* than ThemisIO, unlike the paper's RPC-granular Lustre NRS.
"""

from repro.harness import FIGURES, run_figure
from repro.harness.experiments import themis_advantage


def test_fig12_baselines():
    out = run_figure("fig12", scale=0.1, seed=0)
    print("\n" + FIGURES["fig12"].report(out))
    themis, gift, tbf = out
    adv = themis_advantage(out)
    print("ThemisIO peak advantage:",
          {k: f"{v * 100:+.1f}%" for k, v in adv.items()},
          "(paper: gift +13.5%, tbf +13.7%)")
    latencies = {name: r["time_to_fair_share"] for name, r in
                 (("themis", themis), ("gift", gift), ("tbf", tbf))}
    print("latency to fair-sharing (job 2):",
          {k: (f"{v:.2f}s" if v is not None else "never")
           for k, v in latencies.items()})
    # ThemisIO reallocates tokens immediately; GIFT budgets lag by mu.
    assert latencies["themis"] is not None
    if latencies["gift"] is not None:
        assert latencies["themis"] <= latencies["gift"] + 1e-9
    # Peak throughput: ThemisIO >= GIFT, strictly above TBF.
    assert themis["solo_median"] >= gift["solo_median"] * 0.98
    assert adv["tbf"] > 0.08
    # Job 2 during sharing: ThemisIO highest.
    assert (themis["shared_medians"]["2"]
            >= gift["shared_medians"]["2"] * 0.98)
    assert (themis["shared_medians"]["2"]
            >= tbf["shared_medians"]["2"] * 0.98)
    # Variation: ThemisIO more stable than GIFT.
    assert themis["shared_stddev"]["2"] < gift["shared_stddev"]["2"]
    # Everyone keeps the device busy while sharing.
    assert themis["total"] > 18e9
