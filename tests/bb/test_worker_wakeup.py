"""Which parked I/O workers a request arrival wakes.

An arrival wakes ``min(parked workers, scheduler.backlog)`` workers,
longest-parked first; a crash or restart wakes all of them. Waking the
rest is pure overhead — each would dequeue nothing and park again in the
same order — so service order must be what waking everyone gives.
"""

import math
from collections import deque

import pytest

from repro.bb import Cluster, ClusterConfig, ServerConfig
from repro.core import JobInfo
from repro.core.scheduler import Scheduler
from repro.units import GB, MB

N_WORKERS = 8


class CountingScheduler:
    """Wraps a server's scheduler and logs every ``dequeue`` call."""

    def __init__(self, server):
        self.inner = server.scheduler
        self.server = server
        self.calls = []      # (now, worker index, client served or None)
        self.enqueued = []   # arrival times
        self.handed = 0      # dequeue calls that returned a request

    def enqueue(self, request, now):
        self.enqueued.append(now)
        self.inner.enqueue(request, now)

    def dequeue(self, now):
        request = self.inner.dequeue(now)
        self.handed += request is not None
        active = self.server.engine.active_process
        worker = next(w.index for w in self.server.workers
                      if w.process is active)
        self.calls.append(
            (now, worker, None if request is None else request.client_id))
        return request

    def __getattr__(self, name):
        return getattr(self.inner, name)


def one_server(policy="job-fair", wake_all=False, **cluster_kw):
    """A one-server cluster with a counting scheduler; with *wake_all*
    every arrival wakes every parked worker (the reference behaviour)."""
    cluster = Cluster(ClusterConfig(
        n_servers=1, policy=policy,
        server=ServerConfig(n_workers=N_WORKERS), **cluster_kw))
    cluster.fs.makedirs("/fs/d")
    server = cluster.servers["bb0"]
    server.scheduler = counting = CountingScheduler(server)
    if wake_all:
        notify = server._notify_work
        server._notify_work = lambda limit=None: notify()
    return cluster, server, counting


def burst(cluster, k, at=1.0, size=4 * MB):
    """k clients of k jobs that each issue one write at the instant *at*."""
    def app(client, path):
        yield from client.create(path)
        yield cluster.engine.timeout(at - cluster.engine.now)
        yield from client.write(path, 0, size)

    for i in range(k):
        client = cluster.add_client(
            JobInfo(job_id=i + 1, user=f"u{i}", size=1), client_id=f"c{i}")
        cluster.engine.process(app(client, f"/fs/d/f{i}"))


@pytest.mark.parametrize("k", [1, 3, N_WORKERS, N_WORKERS + 4])
def test_same_instant_arrivals_wake_min_k_parked(k):
    runs = {}
    for wake_all in (False, True):
        cluster, server, counting = one_server(wake_all=wake_all)
        burst(cluster, k)
        cluster.run(until=0.9)
        assert len(server._work_waiters) == N_WORKERS      # all idle
        settled = len(counting.calls)
        cluster.run(until=5.0)
        arrivals = counting.enqueued[-k:]
        assert len(set(arrivals)) == 1                     # one instant
        woken = [c for c in counting.calls[settled:] if c[0] == arrivals[0]]
        runs[wake_all] = (woken, counting.calls[settled:], cluster)
        assert server.served_requests == 2 * k             # k opens, k writes
    woken, calls, cluster = runs[False]
    ref_woken, ref_calls, ref_cluster = runs[True]
    assert len(woken) == min(k, N_WORKERS)
    assert len(ref_woken) > len(woken) or k >= N_WORKERS
    # Same requests to the same workers at the same times, in one order.
    served = [c for c in calls if c[2] is not None]
    assert served == [c for c in ref_calls if c[2] is not None]
    assert cluster.engine.now == ref_cluster.engine.now
    assert (cluster.sampler.total_bytes(), len(cluster.sampler)) == (
        ref_cluster.sampler.total_bytes(), len(ref_cluster.sampler))


def test_crash_and_restart_wake_every_parked_worker():
    cluster, server, counting = one_server()
    cluster.run(until=0.1)
    assert len(server._work_waiters) == N_WORKERS
    server.crash()
    assert server._work_waiters == []
    cluster.run(until=0.2)
    assert len(server._restart_waiters) == N_WORKERS
    before = len(counting.calls)
    server.restart()
    cluster.run(until=0.3)
    # Every worker came back, found nothing, and parked again.
    assert len(counting.calls) == before + N_WORKERS
    assert len(server._work_waiters) == N_WORKERS


class BlockingFifo(Scheduler):
    """FIFO that serves nothing while ``blocked`` and names no wake-up
    time: the shape of a throttled backlog without ``next_eligible_time``."""

    name = "blocking-fifo"

    def __init__(self):
        self.queue = deque()
        self.blocked = True
        self.calls = []

    def enqueue(self, request, now):
        self.queue.append(request)

    def dequeue(self, now):
        self.calls.append(now)
        if self.blocked or not self.queue:
            return None
        return self.queue.popleft()

    @property
    def backlog(self):
        return len(self.queue)


def test_workers_parked_on_a_blocked_backlog_wait_for_the_next_arrival():
    cluster = Cluster(ClusterConfig(
        n_servers=1, server=ServerConfig(n_workers=N_WORKERS)))
    cluster.fs.makedirs("/fs/d")
    server = cluster.servers["bb0"]
    server.scheduler = stub = BlockingFifo()
    job = JobInfo(job_id=1, user="u", size=4)
    done = []

    def app(client, at):
        yield cluster.engine.timeout(at)
        yield from client.stat("/fs/d")
        done.append(cluster.engine.now)

    for i, at in enumerate((0.1, 0.2, 0.3, 1.0)):
        cluster.engine.process(app(
            cluster.add_client(job, client_id=f"c{i}"), at))
    cluster.run(until=0.5)
    # Arrival i found i requests queued and woke that many; all of them
    # parked again with the backlog still there.
    assert [stub.calls.count(t) for t in sorted(set(stub.calls)) if t > 0] \
        == [1, 2, 3]
    assert sum(w.throttle_waits for w in server.workers) == 6
    assert len(server._work_waiters) == N_WORKERS and stub.backlog == 3

    stub.blocked = False
    server.controller.refresh_tokens(force=True)
    calls = len(stub.calls)
    cluster.run(until=0.9)
    assert len(stub.calls) == calls and not done   # a refresh wakes no one

    cluster.run(until=2.0)
    # The fourth arrival woke min(8 parked, 4 queued) workers at once.
    arrival = stub.calls[calls]
    assert stub.calls.count(arrival) == 4
    assert len(done) == 4 and stub.backlog == 0


@pytest.mark.parametrize("policy", ["gift", "tbf"])
def test_throttling_comparators_never_strand_an_eligible_request(policy):
    """Work conservation (the opportunity-fairness property): while a
    request is queued and the scheduler can name when it may run, no
    worker sits on ``work_event`` unless as many idle workers as there
    are queued requests are already awake (on a timer or about to run).
    """
    cluster, server, counting = one_server(
        policy=policy, gift_mu=0.01,
        tbf_rates={1: 2 * GB, 2: 6 * GB, 3: 1 * GB})
    engine = cluster.engine

    def app(client, path, size, gap):
        yield from client.create(path)
        while True:
            yield from client.write(path, 0, size)
            if gap:
                yield engine.timeout(gap)

    shapes = [(1, 4, 8 * MB, 0.0), (2, 6, 1 * MB, 0.0), (3, 3, 2 * MB, 3e-3)]
    for job_id, n_clients, size, gap in shapes:
        info = JobInfo(job_id=job_id, user=f"u{job_id}", size=n_clients)
        for c in range(n_clients):
            client = cluster.add_client(info, client_id=f"j{job_id}c{c}")
            engine.process(app(client, f"/fs/d/j{job_id}c{c}", size, gap))

    checked = awake = 0
    while engine.peek() <= 0.25:
        engine.step()
        backlog = counting.backlog
        if backlog == 0 or not math.isfinite(
                counting.next_eligible_time(engine.now)):
            continue
        busy = counting.handed - server.served_requests
        idle = N_WORKERS - busy
        parked = len(server._work_waiters)
        checked += 1
        awake += parked < idle      # on a timer, or woken and yet to run
        assert idle - parked >= min(idle, backlog), (engine.now, backlog)
    assert checked > 1000 and awake > 1000
    assert server.served_requests > 100
    assert sum(w.idle_cycles for w in server.workers) > 0
