"""§6 related work — DataWarp provisioning policies vs ThemisIO sharing.

The paper argues production burst-buffer provisioning is "resource
underutilization prone": DataWarp's *interference* policy isolates jobs
on dedicated servers (fair, but idle capacity cannot move), while the
*bandwidth* policy shares servers under FIFO (fast, but small jobs are
buried). ThemisIO's pitch is both at once: shared servers with
statistical-token fairness.

Measured shape (4 servers, 2 heavy + 2 light jobs): isolation loses
~40% of aggregate throughput; FIFO sharing recovers it but starves the
light jobs; size-fair sharing keeps the aggregate at the FIFO level
while giving light jobs several times their FIFO throughput.
"""

from repro.harness import FIGURES, run_figure


def test_related_datawarp():
    out = run_figure("datawarp", seed=0, duration=1.5)
    print("\n" + FIGURES["datawarp"].report(out))
    totals = {r["regime"]: r["total"] for r in out}
    per_job = {r["regime"]: r["per_job"] for r in out}
    jain = {r["regime"]: r["jain"] for r in out}
    heavy = ("1", "2")
    light = ("3", "4")
    # Sharing (either discipline) recovers the capacity isolation wastes.
    assert totals["themis"] > 1.4 * totals["isolated"]
    assert totals["themis"] > 0.9 * totals["fifo-shared"]
    # FIFO buries the light jobs; ThemisIO lifts them severalfold.
    for j in light:
        assert per_job["themis"][j] > 2.5 * per_job["fifo-shared"][j]
    # Heavy jobs still get the lion's share under size-fair.
    for j in heavy:
        assert per_job["themis"][j] > 5 * per_job["themis"][light[0]]
    # Per-entitled-node fairness: ThemisIO well above FIFO sharing.
    assert jain["themis"] > jain["fifo-shared"] + 0.15
