"""Fig. 13 — application time-to-solution: FIFO vs size-fair, relative
to exclusive access.

Paper rows: FIFO + background slows NAMD/WRF/BERT/SPECFEM3D by
60.6/45.3/3.8/3.0% and ResNet-50 (async) by 2.7x; size-fair cuts these
to 0.1/4.6/1.6/0.0% and 12.9%, each bounded near the background job's
node-count share; size-fair removes 59.1-99.8% of the FIFO-induced
slowdown. The synchronous-ResNet validation run (62.1% overhead vs
async; FIFO 2.0x; size-fair 1.1%) is included as a variant.
"""

from repro.harness import FIGURES, run_figure
from repro.harness.experiments import slowdown, slowdown_reduction

APPS = ("namd", "wrf", "specfem3d", "resnet50", "bert")


def test_fig13_applications():
    out = run_figure("fig13", apps=APPS, seed=0, include_sync_resnet=True)
    print("\n" + FIGURES["fig13"].report(out))
    for app in APPS:
        fifo_s = slowdown(out, app, "fifo")
        fair_s = slowdown(out, app, "sizefair")
        # size-fair always (far) better than FIFO under interference.
        assert fair_s < fifo_s, (app, fifo_s, fair_s)
    # Headline cases.
    assert slowdown(out, "namd", "fifo") > 0.30      # paper: +60.6%
    assert slowdown(out, "namd", "sizefair") < 0.05  # paper: +0.1%
    assert slowdown(out, "wrf", "fifo") > 0.25       # paper: +45.3%
    assert slowdown(out, "resnet50", "fifo") > 1.0   # paper: 2.7x
    # Async anomaly: size-fair ResNet may exceed the 5.9% node bound.
    assert slowdown(out, "resnet50", "sizefair") < 0.35
    # Slowdown reduction for the I/O-sensitive apps (paper: 59.1-99.8%).
    for app in ("namd", "wrf", "resnet50"):
        assert slowdown_reduction(out, app) > 0.55, app
    # Sync-ResNet validation: FIFO still catastrophic, size-fair far less.
    sync = "resnet50-sync"
    assert slowdown(out, sync, "fifo") > slowdown(out, sync, "sizefair")
