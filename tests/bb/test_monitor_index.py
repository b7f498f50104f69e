"""The job monitor's derived state: the table's active-id index behind
``active_local_jobs`` and the per-job client count behind ``goodbye``.

Both replace a scan (every job that ever contacted the server; every
client id of every job) and must say what the scan said, whatever order
registers, re-registers, goodbyes, expiries and crashes arrive in.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bb import Cluster, ClusterConfig, ServerConfig
from repro.bb.monitor import JobMonitor
from repro.core import JobInfo
from repro.sim import Engine

JOBS = st.integers(0, 3)
CLIENTS = st.sampled_from(["", "c0", "c1", "c2"])
OPS = st.one_of(
    st.tuples(st.just("observe"), JOBS, CLIENTS),
    st.tuples(st.just("exit"), CLIENTS),
    st.tuples(st.just("deactivate"), JOBS),
    st.tuples(st.just("run"), st.sampled_from([0.2, 0.6, 1.5])),
    st.tuples(st.just("reset")),
)


def _job(job_id):
    return JobInfo(job_id=job_id, user=f"u{job_id}")


def _assert_scans_agree(monitor):
    flagged = {record.info.job_id for record in monitor.table.snapshot()
               if record.active}
    assert monitor.active_local_jobs() == monitor.local_jobs & flagged
    for job_id in range(4):
        assert (monitor.client_count(job_id)
                == len(monitor.clients_of(job_id))), job_id


@settings(max_examples=150)
@given(st.lists(OPS, max_size=30))
def test_index_and_client_counts_equal_the_scans(ops):
    engine = Engine()
    monitor = JobMonitor(engine, heartbeat_timeout=1.0, check_interval=0.5)
    for op in ops:
        if op[0] == "observe":
            monitor.observe(_job(op[1]), op[2])
        elif op[0] == "exit":
            monitor.client_exit(op[1])
        elif op[0] == "deactivate":
            monitor.table.deactivate(op[1])
        elif op[0] == "run":
            engine.run(until=engine.now + op[1])    # the expiry loop fires
        else:
            monitor.reset()
            assert monitor.table.active_ids == set()
            assert monitor.active_local_jobs() == set()
        _assert_scans_agree(monitor)


def test_same_client_id_registering_again_counts_once():
    monitor = JobMonitor(Engine())
    for _ in range(3):
        monitor.observe(_job(1), "c0")
    assert monitor.client_count(1) == 1
    monitor.observe(_job(2), "c0")          # the id moves to another job
    assert (monitor.client_count(1), monitor.client_count(2)) == (0, 1)
    assert monitor.client_exit("c0") == 2
    assert monitor.client_exit("c0") is None
    assert monitor.client_count(2) == 0


def test_last_goodbye_deactivates_and_a_crash_empties_the_index():
    cluster = Cluster(ClusterConfig(
        n_servers=1, policy="job-fair", server=ServerConfig()))
    cluster.fs.makedirs("/fs/d")
    server = cluster.servers["bb0"]
    clients = [cluster.add_client(_job(7), client_id=f"c{i}")
               for i in range(2)]
    other = cluster.add_client(_job(8), client_id="c9")

    def app():
        for client in clients + [other]:
            yield from client.register_all()
        # Every I/O request observes its client id again.
        yield from clients[0].create("/fs/d/f")
        yield from clients[0].write("/fs/d/f", 0, 1 << 20)
        assert server.monitor.client_count(7) == 2
        yield from clients[0].goodbye()
        assert server.monitor.client_count(7) == 1
        assert server.monitor.active_local_jobs() == {7, 8}
        yield from clients[1].goodbye()
        assert server.monitor.client_count(7) == 0
        assert server.monitor.active_local_jobs() == {8}
        _assert_scans_agree(server.monitor)

    done = cluster.engine.process(app())
    cluster.run(until=2.0)
    assert done.triggered and done.ok
    server.crash()
    assert server.monitor.table.active_ids == set()
    assert server.monitor.active_local_jobs() == set()
    assert server.monitor.client_count(8) == 0
    server.restart()
    assert server.monitor.table.active_ids == set()
    _assert_scans_agree(server.monitor)
