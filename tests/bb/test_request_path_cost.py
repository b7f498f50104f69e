"""What one served request costs the kernel, counted, not timed.

A 4-server x 4-job cell of the Fig. 7 write workload (the ledger's
``fig07_write`` at a thirty-second of its size). Per served data request
the run schedules 7.8 events and resumes a process 2.6 times (8.4 and
2.9 at the ledger's 128 servers); before PR 19 the second figure was 4.7
(5.1) — the per-node dispatcher coroutine. The counts have no noise, so
the thresholds sit 5 % above what this tree measures: an event or a
coroutine switch creeping back onto the request path fails here without
a stopwatch. ``LEDGER_COUNTS.json`` gates events and messages at the
ledger's sizes; it cannot see resumes.
"""

from unittest import mock

from repro.bb import Cluster, ClusterConfig
from repro.core import JobInfo
from repro.sim.process import Process
from repro.units import MB
from repro.workloads.ior import IORWorkload

N = 4
DURATION = 0.09


def _run_cell():
    cluster = Cluster(ClusterConfig(n_servers=N, policy="job-fair", seed=12))
    engine = cluster.engine
    workload = IORWorkload(file_size=64 * MB, block_size=8 * MB,
                           mode="write", streams_per_node=8)
    for j in range(1, N + 1):
        info = JobInfo(job_id=j, user=f"u{j}", size=1)
        prefix = f"/fs/job{j}"
        cluster.fs.makedirs(prefix)
        client = cluster.add_client(info, client_id=f"j{j}")
        for s_idx in range(workload.streams_per_node):
            engine.process(workload.run_stream(
                engine, client, cluster.rng.stream(f"wl.j{j}.s{s_idx}"),
                prefix, s_idx, DURATION))
    resumes = [0]
    real_resume = Process._resume

    def counting_resume(self, event):
        resumes[0] += 1
        real_resume(self, event)

    with mock.patch.object(Process, "_resume", counting_resume):
        engine.run(until=DURATION)
    served = sum(s.served_requests for s in cluster.servers.values())
    return engine.stats()["scheduled_total"], resumes[0], served


def test_events_and_resumes_per_served_request():
    events, resumes, served = _run_cell()
    assert served > 500
    # Measured on this tree: 6,414 events and 2,125 resumes for 820
    # served requests (the parent of PR 19: 6,422 and 3,820).
    assert events / served <= 7.83 * 1.05
    assert resumes / served <= 2.60 * 1.05
