"""Fig. 13 — application time-to-solution: FIFO vs size-fair, relative
to exclusive access.

Paper rows: FIFO + background slows NAMD/WRF/BERT/SPECFEM3D by
60.6/45.3/3.8/3.0% and ResNet-50 (async) by 2.7x; size-fair cuts these
to 0.1/4.6/1.6/0.0% and 12.9%, each bounded near the background job's
node-count share; size-fair removes 59.1-99.8% of the FIFO-induced
slowdown. The synchronous-ResNet validation run (62.1% overhead vs
async; FIFO 2.0x; size-fair 1.1%) is included as a variant.
"""

from repro.harness import fig13_applications

APPS = ("namd", "wrf", "specfem3d", "resnet50", "bert")


def test_fig13_applications():
    out = fig13_applications(apps=APPS, seed=0,
                             include_sync_resnet=True)
    print("\n" + out.report())
    for app in APPS:
        fifo_s = out.slowdown(app, "fifo")
        fair_s = out.slowdown(app, "sizefair")
        # size-fair always (far) better than FIFO under interference.
        assert fair_s < fifo_s, (app, fifo_s, fair_s)
    # Headline cases.
    assert out.slowdown("namd", "fifo") > 0.30      # paper: +60.6%
    assert out.slowdown("namd", "sizefair") < 0.05  # paper: +0.1%
    assert out.slowdown("wrf", "fifo") > 0.25       # paper: +45.3%
    assert out.slowdown("resnet50", "fifo") > 1.0   # paper: 2.7x
    # Async anomaly: size-fair ResNet may exceed the 5.9% node bound.
    assert out.slowdown("resnet50", "sizefair") < 0.35
    # Slowdown reduction for the I/O-sensitive apps (paper: 59.1-99.8%).
    for app in ("namd", "wrf", "resnet50"):
        assert out.slowdown_reduction(app) > 0.55, app
    # Sync-ResNet validation: FIFO still catastrophic, size-fair far less.
    sync = "resnet50-sync"
    assert out.slowdown(sync, "fifo") > out.slowdown(sync, "sizefair")
