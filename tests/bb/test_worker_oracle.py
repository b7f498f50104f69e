"""The I/O worker as engine calls replays the generator-process worker.

:func:`reference_loop` and :func:`reference_acquire_locks` are the
worker loop as it ran before, one generator :class:`Process` per
worker: it parks on a fresh work or restart ``Event``, sleeps through
the device time and the throttle retry on a ``Timeout``, and waits for a
lock on an ``Event`` that the worker, the lock table's waiter, succeeds
when woken (the table keys a waiter by the lock owner, so the worker
registers itself as before). Patched in for the call
worker, it must reproduce each cell's sampler records, final clock,
served bytes, queue entry count, per-worker counters and fault counters
bit for bit: each of those Events becomes one call at the same instant
and the same place in the queue, so a difference here is an entry that
moved.
"""

from unittest import mock

import pytest

from repro.bb import Cluster, ClusterConfig, ServerConfig
from repro.bb.client import ClientConfig
from repro.bb.request import OpType
from repro.bb.server import Server
from repro.bb.worker import _BLOCKED_RETRY, IOWorker
from repro.core import JobInfo
from repro.harness import run_experiment
from repro.harness.experiments import fig07_scenario, timeline
from repro.sim.process import Event
from repro.units import GB, KiB, MB
from repro.workloads.base import JobSpec


# ------------------------------------------------------------- reference
def reference_init(self, server, index):
    """``IOWorker.__init__`` starting the generator loop as a process."""
    self.server = server
    self.index = index
    self.served_requests = 0
    self.served_bytes = 0
    self.idle_cycles = 0
    self.lock_waits = 0
    self.throttle_waits = 0
    self.locked_ino = None
    self.locked_meta = None
    self.process = server.engine.process(reference_loop(self))


def work_event(server):
    """The event a worker parks on when the scheduler is empty."""
    ev = Event(server.engine)
    server._work_waiters.append(ev)
    return ev


def restart_event(server):
    """The event a worker parks on while the server is crashed."""
    ev = Event(server.engine)
    if not server.crashed:
        ev.succeed()
        return ev
    server._restart_waiters.append(ev)
    return ev


def reference_notify_work(self, limit=None):
    """``Server._notify_work`` over parked events."""
    waiters = self._work_waiters
    n = len(waiters) if limit is None else limit
    self._work_waiters = waiters[n:]
    for ev in waiters[:n]:
        ev.succeed()


_RESTART = Server.restart


def reference_restart(self):
    """``Server.restart`` succeeding each parked restart event, then
    waking the work waiters, as its last two steps."""
    if not self.crashed:
        return
    restart, self._restart_waiters = self._restart_waiters, []
    work, self._work_waiters = self._work_waiters, []
    _RESTART(self)           # its _notify_work finds no one to wake
    for ev in restart:
        ev.succeed()
    self._work_waiters = work
    self._notify_work()


def reference_loop(worker):
    server = worker.server
    engine = server.engine
    scheduler = server.scheduler
    while True:
        if server.crashed:
            yield restart_event(server)
            continue
        request = scheduler.dequeue(engine.now)
        if request is None:
            if scheduler.backlog == 0:
                yield work_event(server)
            else:
                worker.idle_cycles += 1
                wake = scheduler.next_eligible_time(engine.now)
                if wake == float("inf"):
                    worker.throttle_waits += 1
                    yield work_event(server)
                else:
                    yield engine.timeout(
                        max(wake - engine.now, _BLOCKED_RETRY))
            continue
        epoch = server.crash_epoch
        yield from reference_acquire_locks(worker, request)
        if server.crashed or server.crash_epoch != epoch:
            worker._abandon(request)
            continue
        yield engine.timeout(server.service_time(request))
        if server.crashed or server.crash_epoch != epoch:
            worker._abandon(request)
            continue
        moved = worker._apply(request)
        worker._release_locks(request)
        worker._complete(request, moved)


def reference_acquire_locks(worker, request):
    server = worker.server
    engine = server.engine
    node = server.fs.nodes[server.name]
    if request.op is OpType.WRITE:
        inode = server.fs.lookup(request.path)
        if inode is None:
            return
        worker.locked_ino = inode.ino
        while not node.range_locks.try_lock_write(
                inode.ino, request.offset, request.size, worker):
            worker.lock_waits += 1
            released = Event(engine)
            worker.succeed = released.succeed
            node.range_locks.wait(inode.ino, worker, request.offset,
                                  request.size)
            yield released
    elif request.op in (OpType.OPEN, OpType.UNLINK):
        parent = server.fs.lookup(request.path.rsplit("/", 1)[0] or "/")
        if parent is None:
            return
        worker.locked_meta = parent.ino
        while not node.meta_locks.try_lock(parent.ino, worker):
            worker.lock_waits += 1
            released = Event(engine)
            worker.succeed = released.succeed
            node.meta_locks.wait(parent.ino, worker)
            yield released


# ----------------------------------------------------------------- cells
def _job(j):
    return JobInfo(job_id=j, user=f"u{j % 3}", size=1 + j % 4)


def _slow_cluster(seed, n_workers=4, **cluster_kw):
    cluster = Cluster(ClusterConfig(
        n_servers=1, policy="size-fair", seed=seed,
        server=ServerConfig(bandwidth=1 * GB, n_workers=n_workers),
        **cluster_kw))
    cluster.fs.makedirs("/fs/shared")
    return cluster


def range_locks(seed):
    """Streams of several jobs writing the same 64 KiB slots of three
    shared files (``job_churn``'s shape): writes meet on the range
    locks, and a release wakes only the overlapping waiters."""
    cluster = _slow_cluster(seed)
    engine = cluster.engine
    files = [f"/fs/shared/f{i}" for i in range(3)]

    def stream(client, path, base):
        for i in range(4):
            offset = ((base + i) % 3) * 256 * KiB
            yield from client.write(path, offset, 64 * KiB + i * KiB)
        yield from client.read(path, base * 256 * KiB, 64 * KiB)

    def job(j):
        yield engine.timeout(j * 2e-4)
        rng = cluster.rng.stream(f"oracle.j{j}")
        client = cluster.add_client(_job(j), client_id=f"j{j}")
        path = files[int(rng.integers(len(files)))]
        yield from client.create(path)
        for _ in range(3):
            engine.process(stream(client, path, int(rng.integers(3))))

    for j in range(1, 9):
        engine.process(job(j))
    cluster.run(until=0.5)
    return cluster


def meta_locks(seed):
    """Clients creating, statting and unlinking files in two shared
    directories: OPEN and UNLINK queue on the parent's metadata lock."""
    cluster = _slow_cluster(seed)
    cluster.fs.makedirs("/fs/shared/b")
    engine = cluster.engine

    def app(client, rng):
        for k in range(12):
            d = "/fs/shared" if rng.random() < 0.5 else "/fs/shared/b"
            path = f"{d}/n{int(rng.integers(6))}"
            yield from client.create(path)
            yield from client.stat(path)
            if k % 3 == 2:
                yield from client.unlink(path)

    for c in range(10):
        client = cluster.add_client(_job(c % 4 + 1), client_id=f"c{c}")
        engine.process(app(client, cluster.rng.stream(f"oracle.c{c}")))
    cluster.run(until=0.5)
    return cluster


def crash(seed):
    """Writers on one 8 MB range of a shared file, crashed while one
    worker is in its device time and another waits for the range lock,
    then restarted; the clients retry on their RPC timeouts."""
    cluster = _slow_cluster(
        seed, client=ClientConfig(rpc_timeout=0.05, retry_backoff=0.01,
                                  retry_backoff_max=0.05))
    engine = cluster.engine
    server = cluster.servers["bb0"]
    seen = []

    def writer(client, k):
        for i in range(6):
            yield from client.write("/fs/shared/f", 0, 8 * MB)
            yield engine.timeout(1e-3 * k)

    def boot(client, n):
        yield from client.create("/fs/shared/f")
        for k in range(n):
            engine.process(writer(client, k))

    def crash_now():
        locks = server.fs.nodes["bb0"].range_locks
        ino = server.fs.lookup("/fs/shared/f").ino
        seen.append((locks.write_locks_held(ino), locks.waiters(ino)))
        server.crash()

    for c in range(2):
        engine.process(boot(cluster.add_client(_job(c + 1),
                                               client_id=f"c{c}"), 3))
    engine.call_at(0.02 + 1e-3 * seed, crash_now)
    engine.call_at(0.12, server.restart)
    cluster.run(until=1.0)
    held, waiting = seen[0]
    assert held == 1 and waiting >= 1, seen
    return cluster


def blocked_retry(seed):
    """The ablation (``opportunity_fair=False``): a draw that lands on
    the mostly idle job's segment is wasted, and the worker retries on
    the ``_BLOCKED_RETRY`` timer while the busy job stays backlogged."""
    cluster = _slow_cluster(seed, opportunity_fair=False)
    engine = cluster.engine

    def app(client, path, gap):
        yield from client.create(path)
        while True:
            yield from client.write(path, 0, 1 * MB)
            yield engine.timeout(gap)

    for j, streams, gap in ((1, 8, 0.0), (2, 1, 0.02)):
        client = cluster.add_client(_job(j), client_id=f"j{j}")
        for s in range(streams):
            engine.process(app(client, f"/fs/shared/j{j}s{s}", gap))
    cluster.run(until=0.3)
    return cluster


def _specs():
    return [JobSpec(job_id=1, user="u0", nodes=1),
            JobSpec(job_id=2, user="u1", nodes=1)]


def _experiment(build):
    return lambda seed: run_experiment(build(seed)).cluster


CELLS = {
    "fig07-write": _experiment(lambda seed: fig07_scenario(
        "job-fair", "write", 2, duration=0.05, seed=seed)),
    "fig07-read": _experiment(lambda seed: fig07_scenario(
        "job-fair", "read", 2, duration=0.04, seed=seed)),
    "range-locks": range_locks,
    "meta-locks": meta_locks,
    "crash": crash,
    # Fig. 12's throttling comparators: workers idle on next_eligible_time.
    "gift": _experiment(lambda seed: timeline(
        "gift", _specs(), scale=0.01, seed=seed, gift_mu=0.02)),
    "tbf": _experiment(lambda seed: timeline(
        "tbf", _specs(), scale=0.01, seed=seed,
        tbf_rates={1: 5 * GB, 2: 3 * GB})),
    "blocked-retry": blocked_retry,
}


def _observe(cluster):
    s = cluster.sampler
    workers = [(w.served_requests, w.served_bytes, w.idle_cycles,
                w.lock_waits, w.throttle_waits)
               for server in cluster.servers.values()
               for w in server.workers]
    return (list(zip(s._times, s._jobs, s._bytes, s._ops)),
            cluster.engine.now, cluster.total_served_bytes(),
            cluster.engine.stats()["scheduled_total"], workers,
            cluster.fault_stats.snapshot())


def _reference(build, seed):
    with mock.patch.object(IOWorker, "__init__", reference_init), \
            mock.patch.object(Server, "_notify_work",
                              reference_notify_work), \
            mock.patch.object(Server, "restart", reference_restart):
        return _observe(build(seed))


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("cell", sorted(CELLS))
def test_call_worker_matches_generator_worker(cell, seed):
    build = CELLS[cell]
    want = _reference(build, seed)
    got = _observe(build(seed))
    assert got[0], "the cell served nothing"
    idle, waits = (sum(w[k] for w in got[4]) for k in (2, 3))
    if cell in ("range-locks", "meta-locks", "crash"):
        assert waits > 0
    if cell in ("gift", "tbf", "blocked-retry"):
        assert idle > 0
    if cell == "crash":
        faults = got[5]
        assert faults["server_crashes"] == faults["server_recoveries"] == 1
        assert faults["requests_dropped_in_crash"] >= 2
    assert got == want
