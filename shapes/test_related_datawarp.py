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

from repro.harness.experiments import related_datawarp


def test_related_datawarp():
    out = related_datawarp(seed=0, duration=1.5)
    print("\n" + out.report())
    heavy = (1, 2)
    light = (3, 4)
    # Sharing (either discipline) recovers the capacity isolation wastes.
    assert out.totals["themis"] > 1.4 * out.totals["isolated"]
    assert out.totals["themis"] > 0.9 * out.totals["fifo-shared"]
    # FIFO buries the light jobs; ThemisIO lifts them severalfold.
    for j in light:
        assert out.per_job["themis"][j] > 2.5 * out.per_job["fifo-shared"][j]
    # Heavy jobs still get the lion's share under size-fair.
    for j in heavy:
        assert out.per_job["themis"][j] > 5 * out.per_job["themis"][light[0]]
    # Per-entitled-node fairness: ThemisIO well above FIFO sharing.
    assert out.jain["themis"] > out.jain["fifo-shared"] + 0.15
