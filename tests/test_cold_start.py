"""``import repro`` and a ThemisIO run do not pay for the GIFT
comparator's LP solver: ``scipy`` (0.45 s, 43 MiB at import) loads in
the one branch of ``GiftScheduler._redeem`` that solves the coupon LP.
Run in a process of its own, because any earlier test may have loaded
scipy into this one.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys
from repro.harness import run_experiment
from repro.harness.experiments import timeline
from repro.workloads import JobSpec

specs = [JobSpec(job_id=1, user="a", nodes=2),
         JobSpec(job_id=2, user="b", nodes=1)]
themis = run_experiment(timeline("size-fair", specs, scale=0.02))
assert themis.cluster.total_served_bytes() > 0
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"], \\
    "a ThemisIO run imported scipy"
gift = run_experiment(timeline("gift", specs, scale=0.05))
(server,) = gift.cluster.servers.values()
assert server.scheduler.lp_calls > 0, "the GIFT run solved no LP"
assert "scipy.optimize" in sys.modules
print("ok")
"""


def test_themis_run_leaves_scipy_out_and_gift_still_solves_its_lp():
    result = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": str(SRC)})
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ok"
