"""Fig. 7 — aggregate throughput scaling with server count.

Paper rows: 11.7 GB/s with one server (unidirectional), 82% scaling
efficiency at 8 servers, 68% at 128, FIFO ≈ job-fair for both writes
and reads. We sweep 1-8 servers. Beyond 8 the model departs from the
paper: ``server_counts=(1, 8, 32, 128)`` gives 82 % at 8 servers, rising
to 88-90 % at 32 and 128, against the paper's 68 % at 128. Nothing on
the model's data path costs more as N grows; ROADMAP item 9 is to
explain the paper's drop or record the deviation.
"""

from repro.harness import FIGURES, run_figure
from repro.harness.experiments import efficiencies, scaling_series

COUNTS = (1, 2, 4, 8)


def test_fig07_scaling():
    out = run_figure("fig07", server_counts=COUNTS, duration=1.5)
    print("\n" + FIGURES["fig07"].report(out))
    rows = scaling_series(out)
    for key, series in rows.items():
        eff = efficiencies(out)[key]
        # Near-linear scaling that degrades gently with node count.
        assert eff[-1] > 0.6, (key, eff)
        assert all(e < 1.25 for e in eff), (key, eff)
        # Throughput grows monotonically with servers.
        assert all(a < b for a, b in zip(series, series[1:])), (key, series)
    # FIFO and job-fair are equivalent for uncontended scaling runs.
    for mode in ("write", "read"):
        fifo = rows[f"fifo-{mode}"][-1]
        fair = rows[f"job-fair-{mode}"][-1]
        assert abs(fifo - fair) / fifo < 0.15
