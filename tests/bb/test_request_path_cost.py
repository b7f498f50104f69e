"""What one served request costs the kernel, counted, not timed.

A 4-server x 4-job cell of the Fig. 7 write workload (the ledger's
``fig07_write`` at a thirty-second of its size). Per served data request
the run schedules 6.9 events and resumes a process 2.6 times (7.4 and
2.9 at the ledger's 128 servers). The resume count was 4.7 (5.1) while
a per-node dispatcher coroutine relayed every message, and the event
count 7.8 (8.4) while a one-slice request waited on an ``AllOf`` over its
one call. With client timeouts on, that wait also ran as a ``Process``
per request; a one-slice request now runs inside its own stream. The
counts have no noise, so the thresholds sit 5 % above what this tree
measures: an event, a coroutine switch or a process creeping back onto
the request path fails here without a stopwatch.
``LEDGER_COUNTS.json`` gates events and messages at the ledger's sizes;
it cannot see resumes or processes.
"""

from unittest import mock

from repro.bb import Cluster, ClusterConfig
from repro.bb.client import ClientConfig
from repro.core import JobInfo
from repro.sim.process import Process
from repro.units import MB
from repro.workloads.ior import IORWorkload

N = 4
DURATION = 0.09


def _run_cell(client=None):
    """Run the cell; ``(events, resumes, processes, served)``, the middle
    two counted while the engine runs."""
    cluster = Cluster(ClusterConfig(n_servers=N, policy="job-fair", seed=12,
                                    client=client or ClientConfig()))
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
    resumes, processes = [0], [0]
    real_resume, real_init = Process._resume, Process.__init__

    def counting_resume(self, event):
        resumes[0] += 1
        real_resume(self, event)

    def counting_init(self, engine, generator):
        processes[0] += 1
        real_init(self, engine, generator)

    with mock.patch.object(Process, "_resume", counting_resume), \
            mock.patch.object(Process, "__init__", counting_init):
        engine.run(until=DURATION)
    served = sum(s.served_requests for s in cluster.servers.values())
    return engine.stats()["scheduled_total"], resumes[0], processes[0], served


def test_events_and_resumes_per_served_request():
    events, resumes, _processes, served = _run_cell()
    assert served > 500
    # Measured on this tree: 5,626 events and 2,125 resumes for 820
    # served requests (6,414 and 2,125 with the AllOf hop; 6,422 and
    # 3,820 with the dispatcher coroutine as well).
    assert events / served <= 6.86 * 1.05
    assert resumes / served <= 2.59 * 1.05


def test_no_process_per_request_with_timeouts_on():
    events, _resumes, processes, served = _run_cell(
        ClientConfig(rpc_timeout=0.25))
    assert served > 500
    # Measured on this tree: 6,492 events (one RPC timer more per call)
    # and 4 processes, one heartbeat loop per client, for 820 served
    # requests (8,888 and 824 with a Process per request).
    assert processes / served <= 0.01
    assert events / served <= 7.92 * 1.05
