"""Model-based (hypothesis stateful) tests.

Each machine drives a component through random operation sequences while
mirroring them on a trivially correct in-memory model, asserting
equivalence as an invariant. These catch interaction bugs that
single-scenario unit tests miss.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (Bundle, RuleBasedStateMachine, invariant,
                                 precondition, rule)

from repro.core import (JobInfo, JobStatusTable, Policy,
                        StatisticalTokenScheduler)
from repro.errors import NoSpace
from repro.fs import JournaledFS, LogStructuredStore
from repro.fs import path as pathmod
from repro.posix import FDTable


class FDTableMachine(RuleBasedStateMachine):
    """The fd table against a dict model with lowest-free-fd allocation."""

    def __init__(self):
        super().__init__()
        self.table = FDTable()
        self.model = {}  # fd -> path

    @rule(name=st.text(min_size=1, max_size=6))
    def open_file(self, name):
        open_file = self.table.allocate(f"/fs/{name}", 0)
        expected_fd = 3
        while expected_fd in self.model:
            expected_fd += 1
        assert open_file.fd == expected_fd
        self.model[open_file.fd] = f"/fs/{name}"

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def close_file(self, data):
        fd = data.draw(st.sampled_from(sorted(self.model)))
        self.table.close(fd)
        del self.model[fd]

    @invariant()
    def model_matches(self):
        assert self.table.open_fds() == sorted(self.model)
        for fd, path in self.model.items():
            assert self.table.get(fd).path == path


class LogStoreMachine(RuleBasedStateMachine):
    """The log store against a dict model, with crashes, recovery and GC
    interleaved arbitrarily."""

    keys = Bundle("keys")

    def __init__(self):
        super().__init__()
        self.store = LogStructuredStore(1 << 18, segment_size=1 << 12)
        self.model = {}

    @rule(target=keys, key=st.integers(0, 20))
    def make_key(self, key):
        return key

    @rule(key=keys, value=st.binary(min_size=1, max_size=200))
    def write(self, key, value):
        try:
            self.store.write(key, value)
            self.model[key] = value
        except NoSpace:
            pass  # saturated with live data; model unchanged

    @rule(key=keys)
    def delete(self, key):
        try:
            existed = self.store.delete(key)
            assert existed == (key in self.model)
            self.model.pop(key, None)
        except NoSpace:
            pass

    @rule()
    def gc(self):
        self.store.gc()

    @rule()
    def crash_and_recover(self):
        self.store.crash()
        self.store.recover()

    @invariant()
    def matches_model(self):
        assert self.store.keys() == set(self.model)
        for key, value in self.model.items():
            assert self.store.read(key) == value


class SchedulerConservationMachine(RuleBasedStateMachine):
    """The token scheduler never loses, duplicates, or reorders (within a
    job) requests, under arbitrary enqueue/dequeue/membership churn."""

    def __init__(self):
        super().__init__()
        self.scheduler = StatisticalTokenScheduler(
            Policy.parse("size-fair"), np.random.default_rng(0))
        self.seq = 0
        self.pending = {}   # req id -> request
        self.served = set()
        self.last_served_seq = {}  # job -> last sequence number served

    class Req:
        def __init__(self, job_id, seq):
            self.job_id = job_id
            self.cost = 1.0
            self.seq = seq
            self.rid = (job_id, seq)

    @rule(job=st.integers(1, 5))
    def enqueue(self, job):
        self.seq += 1
        request = self.Req(job, self.seq)
        self.scheduler.enqueue(request, 0.0)
        self.pending[request.rid] = request

    @rule(jobs=st.sets(st.integers(1, 5), min_size=0, max_size=5))
    def membership_change(self, jobs):
        infos = [JobInfo(job_id=j, user=f"u{j}", size=j) for j in sorted(jobs)]
        self.scheduler.on_jobs_changed(infos)

    @rule()
    def dequeue(self):
        request = self.scheduler.dequeue(0.0)
        if request is None:
            assert self.scheduler.backlog == 0
            return
        assert request.rid in self.pending, "duplicated or fabricated request"
        del self.pending[request.rid]
        self.served.add(request.rid)
        # FIFO within a job: sequence numbers increase per job.
        last = self.last_served_seq.get(request.job_id, -1)
        assert request.seq > last
        self.last_served_seq[request.job_id] = request.seq

    @invariant()
    def conservation(self):
        assert self.scheduler.backlog == len(self.pending)


class _EntryTable:
    """The job status table as it was before records: one mutable
    ``[info, last_heartbeat, active]`` entry per job, updated in place
    and copied out per snapshot; the active set is a scan."""

    def __init__(self, heartbeat_timeout):
        self.timeout = heartbeat_timeout
        self.entries = {}
        self.version = 0

    def observe(self, info, now):
        entry = self.entries.get(info.job_id)
        changed = entry is None or not entry[2] or entry[0] != info
        self.entries[info.job_id] = [info, now, True]
        self.version += changed
        return changed

    def expire(self, now):
        expired = [job_id for job_id, entry in self.entries.items()
                   if entry[2] and now - entry[1] > self.timeout]
        for job_id in expired:
            self.entries[job_id][2] = False
        self.version += bool(expired)
        return expired

    def deactivate(self, job_id):
        entry = self.entries.get(job_id)
        if entry is None or not entry[2]:
            return False
        entry[2] = False
        self.version += 1
        return True

    def snapshot(self):
        return [tuple(entry) for entry in self.entries.values()]

    def merge(self, remote):
        changed = False
        for info, stamp, active in remote:
            entry = self.entries.get(info.job_id)
            if entry is None:
                self.entries[info.job_id] = [info, stamp, active]
                changed = True
            elif stamp > entry[1]:
                changed |= entry[2] != active or entry[0] != info
                entry[:] = [info, stamp, active]
        self.version += changed
        return changed

    def active_ids(self):
        return {job_id for job_id, entry in self.entries.items() if entry[2]}


class JobStatusTableMachine(RuleBasedStateMachine):
    """The record table against the entry table it replaced: two pairs
    observe, expire, deactivate and merge each other's snapshots in
    arbitrary order on one advancing clock, and after every step each
    table returns, counts, indexes and snapshots what its model does."""

    JOBS = st.integers(0, 3)
    SIDE = st.sampled_from([0, 1])
    #: every timestamped rule first moves the shared clock: not at all,
    #: a little, or past both heartbeat timeouts.
    DT = st.sampled_from([0.0, 0.5, 3.5])

    def __init__(self):
        super().__init__()
        self.tables = [JobStatusTable(heartbeat_timeout=2.0),
                       JobStatusTable(heartbeat_timeout=3.0)]
        self.models = [_EntryTable(2.0), _EntryTable(3.0)]
        self.now = 0.0

    @rule(side=SIDE, job_id=JOBS, size=st.integers(1, 2), dt=DT)
    def observe(self, side, job_id, size, dt):
        self.now += dt
        info = JobInfo(job_id, f"u{job_id}", size=size)
        assert (self.tables[side].observe(info, self.now)
                == self.models[side].observe(info, self.now))
        assert self.tables[side].is_active(job_id)

    @rule(side=SIDE, dt=DT)
    def expire(self, side, dt):
        self.now += dt
        assert (self.tables[side].expire(self.now)
                == self.models[side].expire(self.now))

    @rule(side=SIDE, job_id=JOBS)
    def deactivate(self, side, job_id):
        assert (self.tables[side].deactivate(job_id)
                == self.models[side].deactivate(job_id))

    @rule(side=SIDE)
    def merge(self, side):
        # The same records go to both: a reference a table installed
        # must behave like the copy the model took.
        snapshot = self.tables[1 - side].snapshot()
        assert (self.tables[side].merge(snapshot)
                == self.models[side].merge(snapshot))

    @invariant()
    def table_equals_model(self):
        for table, model in zip(self.tables, self.models):
            assert table.version == model.version
            assert table.snapshot() == model.snapshot()
            flagged = model.active_ids()
            assert table.active_ids == flagged
            assert [info.job_id for info in table.active_jobs()] \
                == sorted(flagged)
            assert all(table.is_active(j) == (j in flagged)
                       and (j in table) == (j in model.entries)
                       for j in range(4))
            assert len(table) == len(model.entries)


class PathCacheMachine(RuleBasedStateMachine):
    """Path-cache coherence: whatever create / unlink / rmdir / server
    crash-and-recover interleaving ran, the cached resolver answers
    every spelling of every name exactly as an uncached normalise ->
    ring -> ``node.paths`` lookup does (and as a plain model says).
    Removed names are made again, so single-node recovery meets records
    about earlier incarnations of a live name; files are truncated and
    rewritten and directories listed, so it must neither free data that
    survived nor lose a child whose metadata lives on another server."""

    NAMES = [f"/d{d}" + (f"/f{f}" if f else "") for d in (0, 1)
             for f in (0, 1, 2)]  # /d0, /d0/f1, /d0/f2, /d1, ...
    NAME = st.sampled_from(NAMES)

    def __init__(self):
        super().__init__()
        self.fs = JournaledFS(["a", "b", "c"], 1 << 20, stripe_size=128,
                              storage_backend="log")
        self.model = {}  # name -> file content (b"" for a directory)

    @rule(name=NAME)
    def make(self, name):
        parent = pathmod.split(name)[0]
        if name in self.model or (
                parent != "/" and parent not in self.model):
            return
        (self.fs.mkdir if parent == "/" else self.fs.create)(name)
        self.model[name] = b""

    @rule(name=NAME)
    def remove(self, name):
        if name not in self.model or any(
                other.startswith(name + "/") for other in self.model):
            return
        (self.fs.rmdir if pathmod.split(name)[0] == "/"
         else self.fs.unlink)(name)
        del self.model[name]

    @rule(name=NAME, data=st.binary(min_size=1, max_size=8))
    def truncate(self, name, data):
        if name not in self.model or pathmod.split(name)[0] == "/":
            return
        self.fs.truncate(name, 0)
        self.fs.write(name, 0, data)
        self.model[name] = data

    @rule(name=st.sampled_from(["/", "/d0", "/d1"]))
    def readdir(self, name):
        if name != "/" and name not in self.model:
            return
        assert self.fs.readdir(name) == sorted(
            pathmod.split(other)[1] for other in self.model
            if pathmod.split(other)[0] == name)

    @rule(server=st.sampled_from(["a", "b", "c"]))
    def crash_and_recover(self, server):
        self.fs.crash_node(server)
        self.fs.recover_node(server)

    @invariant()
    def cached_lookup_equals_uncached(self):
        fs = self.fs
        for name in self.NAMES:
            for spelling in (name, "/" + name, name + "/", "/./" + name[1:]):
                norm = pathmod.normalize(spelling)
                node = fs.nodes[fs.ring.lookup(norm)]
                uncached = node.inodes.get(node.paths.get(norm))
                assert fs._find(spelling) is uncached, spelling
                assert (uncached is not None) == (name in self.model)
            if uncached is not None and not uncached.is_dir:
                assert fs.read(name, 0, 16) == self.model[name]


TestPathCacheMachine = PathCacheMachine.TestCase
TestFDTableMachine = FDTableMachine.TestCase
TestLogStoreMachine = LogStoreMachine.TestCase
TestSchedulerConservationMachine = SchedulerConservationMachine.TestCase
TestJobStatusTableMachine = JobStatusTableMachine.TestCase

for case in (TestFDTableMachine, TestLogStoreMachine,
             TestSchedulerConservationMachine, TestJobStatusTableMachine,
             TestPathCacheMachine):
    case.settings = settings(max_examples=30, stateful_step_count=40)
# Four jobs, eight rules: a merge that flips a flag needs a five-step
# prefix, so this machine gets more and longer runs.
TestJobStatusTableMachine.settings = settings(
    max_examples=100, stateful_step_count=60)
