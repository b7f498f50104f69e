"""What one served request costs the kernel, counted, not timed.

A 4-server x 4-job cell of the Fig. 7 write workload (the ledger's
``fig07_write`` at a thirty-second of its size). Per served data request
the run schedules 6.9 queue entries and resumes a process 1.04 times
(7.4 entries at the ledger's 128 servers). An entry is an event or a
call (``sim/engine.py``); both take a sequence number, and the count
here is of both. The resume count was 2.6 (2.9) while each I/O worker
ran as a generator process, waking on an ``Event`` and sleeping through
its device time on a ``Timeout``; it is the same number of entries now
that those are calls (``bb/worker.py``). It was 4.7 (5.1) while
a per-node dispatcher coroutine relayed every message, and the event
count 7.8 (8.4) while a one-slice request waited on an ``AllOf`` over its
one call. With client timeouts on, that wait also ran as a ``Process``
per request; a one-slice request now runs inside its own stream. The
counts have no noise, so the thresholds sit 5 % above what this tree
measures: an event, a coroutine switch or a process creeping back onto
the request path fails here without a stopwatch.
``LEDGER_COUNTS.json`` gates events and messages at the ledger's sizes;
it cannot see resumes or processes.

Python-level calls are counted too (``sys.setprofile``'s ``"call"``
events, a generator's resumption included): 83.9 per served request,
91.0 with timeouts on. They were 86.6 and 93.7 with the generator
worker, and 94.9 and 104.2 while a message's
arrival and each UCP progress hop were Events (``Event.__init__`` plus
``succeed_at`` / ``schedule_at`` or ``succeed`` per hop) and a
``Timeout`` ran ``Event.__init__`` and ``schedule_at``; 144.0 and 155.5
while ``Engine.now``, ``Event.processed``, ``OpType.is_data``,
``IORequest.job_id`` / ``cost`` and the queue total were properties,
the engine fired each event through ``Event._fire``, and every request
ran ``_require_inode``, ``_ensure_io`` and made a ``_backoff`` it never
used. A bookkeeping call creeping back onto the request path fails here
without a stopwatch.

The same cell reading (the ledger's ``fig07_read``: files
pre-populated, no range lock) has its own thresholds: 7.1 entries, 1.04
resumes and 78.9 calls per served request (2.9 resumes and 83.5 calls
with the generator worker; 91.8 calls with the Event-per-hop message
path as well).

Since ``Engine.run`` fires events inline and ``Engine.step`` still
fires them through ``Event._fire``, the cell driven by either must end
the same.
"""

import sys
from unittest import mock

import pytest

from repro.bb import Cluster, ClusterConfig
from repro.bb.client import ClientConfig
from repro.core import JobInfo
from repro.sim.process import Process
from repro.units import MB
from repro.workloads.ior import IORWorkload

N = 4
DURATION = 0.09


def _cell(client=None, mode="write") -> Cluster:
    """Build the cell, ready for ``engine.run(until=DURATION)``."""
    cluster = Cluster(ClusterConfig(n_servers=N, policy="job-fair", seed=12,
                                    client=client or ClientConfig()))
    engine = cluster.engine
    workload = IORWorkload(file_size=64 * MB, block_size=8 * MB,
                           mode=mode, streams_per_node=8)
    for j in range(1, N + 1):
        info = JobInfo(job_id=j, user=f"u{j}", size=1)
        prefix = f"/fs/job{j}"
        cluster.fs.makedirs(prefix)
        client = cluster.add_client(info, client_id=f"j{j}")
        for s_idx in range(workload.streams_per_node):
            engine.process(workload.run_stream(
                engine, client, cluster.rng.stream(f"wl.j{j}.s{s_idx}"),
                prefix, s_idx, DURATION))
    return cluster


def _served(cluster) -> int:
    return sum(s.served_requests for s in cluster.servers.values())


def _run_cell(client=None, mode="write"):
    """Run the cell; ``(events, resumes, processes, served)``, the middle
    two counted while the engine runs."""
    cluster = _cell(client, mode)
    engine = cluster.engine
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
    return (engine.stats()["scheduled_total"], resumes[0], processes[0],
            _served(cluster))


def _python_calls(client=None, mode="write"):
    """Run the cell; ``(calls, served)``, the Python-level calls (the
    profiler's ``"call"`` events) counted while the engine runs."""
    cluster = _cell(client, mode)
    calls = [0]

    def count(_frame, event, _arg):
        if event == "call":
            calls[0] += 1

    sys.setprofile(count)
    try:
        cluster.engine.run(until=DURATION)
    finally:
        sys.setprofile(None)
    return calls[0], _served(cluster)


def test_events_and_resumes_per_served_request():
    events, resumes, _processes, served = _run_cell()
    assert served > 500
    # Measured on this tree: 5,626 entries and 856 resumes for 820
    # served requests (5,626 and 2,125 with the generator worker; 6,414
    # and 2,125 with the AllOf hop; 6,422 and 3,820 with the dispatcher
    # coroutine as well).
    assert events / served <= 6.86 * 1.05
    assert resumes / served <= 1.04 * 1.05


def test_no_process_per_request_with_timeouts_on():
    events, _resumes, processes, served = _run_cell(
        ClientConfig(rpc_timeout=0.25))
    assert served > 500
    # Measured on this tree: 6,492 events (one RPC timer more per call)
    # and 4 processes, one heartbeat loop per client, for 820 served
    # requests (8,888 and 824 with a Process per request).
    assert processes / served <= 0.01
    assert events / served <= 7.92 * 1.05


# Measured on this tree: 68,787 and 74,629 calls for 820 served
# requests (71,024 and 76,866 with the generator worker; 77,847 and
# 85,421 with an Event per message hop as well; 118,067 and 127,531
# with the properties, Event._fire and the three generators per
# request).
@pytest.mark.parametrize("client, measured", [
    (None, 83.9), (ClientConfig(rpc_timeout=0.25), 91.0)],
    ids=["plain", "timeouts"])
def test_python_calls_per_served_request(client, measured):
    calls, served = _python_calls(client)
    assert served > 500
    assert calls / served <= measured * 1.05


def test_read_path_per_served_request():
    events, resumes, _processes, served = _run_cell(mode="read")
    assert served > 500
    # Measured on this tree: 5,952 entries and 870 resumes for 836
    # served requests (5,952 and 2,386 with the generator worker).
    assert events / served <= 7.12 * 1.05
    assert resumes / served <= 1.04 * 1.05
    calls, served = _python_calls(mode="read")
    assert served > 500
    # Measured on this tree: 65,999 calls for 836 served requests
    # (69,775 with the generator worker; 76,727 with an Event per
    # message hop as well).
    assert calls / served <= 78.9 * 1.05


@pytest.mark.parametrize("client", [None, ClientConfig(rpc_timeout=0.25)],
                         ids=["plain", "timeouts"])
def test_run_and_step_end_alike(client):
    ran = _cell(client)
    ran.engine.run(until=DURATION)
    stepped = _cell(client)
    engine = stepped.engine
    while engine.peek() <= DURATION:
        engine.step()
    # What run(until) ends with: the clock moves to the deadline, and no
    # event fires (scheduled_total below would differ).
    engine.run(until=DURATION)
    for cluster in (ran, stepped):
        assert _served(cluster) > 500

    def records(cluster):
        s = cluster.sampler
        return list(zip(s._times, s._jobs, s._bytes, s._ops))

    assert records(stepped) == records(ran)
    assert engine.now == ran.engine.now == DURATION
    assert engine.stats() == ran.engine.stats()
    assert stepped.total_served_bytes() == ran.total_served_bytes()
