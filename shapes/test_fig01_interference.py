"""Fig. 1 — the motivating interference measurement.

Paper rows: with a background I/O benchmark job sharing the burst
buffer under FIFO, the five applications run 3-173% longer than with
exclusive access (NAMD and WRF worst among the synchronous apps,
ResNet-50's async pipeline collapsing hardest).
"""

from repro.harness import FIGURES, run_figure
from repro.harness.experiments import slowdown

APPS = ("namd", "wrf", "specfem3d", "resnet50", "bert")


def test_fig01_interference():
    out = run_figure("fig01", apps=APPS, seed=0)
    print("\n" + FIGURES["fig01"].report(out))
    slowdowns = {app: slowdown(out, app, "fifo") for app in APPS}
    print("FIFO slowdowns:",
          {k: f"{v * 100:+.1f}%" for k, v in slowdowns.items()},
          "(paper range: +3% to +173%)")
    # Every app is slowed by interference.
    assert all(s > 0.0 for s in slowdowns.values()), slowdowns
    # The span covers both compute-bound (small) and I/O-bound (large).
    assert min(slowdowns.values()) < 0.10
    assert max(slowdowns.values()) > 0.50
    # The async-I/O app (ResNet) is among the hardest hit.
    assert slowdowns["resnet50"] > 1.0
