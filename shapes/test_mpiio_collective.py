"""MPI-IO layer (§2.1) — two-phase collective buffering vs independent
strided I/O.

With a realistic per-request overhead, N ranks writing a
rank-interleaved pattern independently issue N*rounds small requests;
collective buffering coalesces them into ``cb_nodes`` large contiguous
requests at the cost of a fabric shuffle. Expect a large request-count
reduction and a wall-clock win.
"""

from repro.bb import Cluster, ClusterConfig, ServerConfig
from repro.core import JobInfo
from repro.mpiio import Communicator, MPIFile, VectorView
from repro.units import KiB

RANKS = 8
ROUNDS = 32
BLOCK = 64 * KiB


def _run(collective: bool):
    cluster = Cluster(ClusterConfig(
        n_servers=1, policy="job-fair",
        server=ServerConfig(op_latency=200e-6, n_workers=4)))
    cluster.fs.makedirs("/fs/mpi")
    job = JobInfo(job_id=1, user="mpi", size=RANKS)
    comm = Communicator([cluster.add_client(job, client_id=f"r{r}")
                         for r in range(RANKS)])
    mpifile = MPIFile(comm, "/fs/mpi/out", cb_nodes=2)
    view = VectorView(nranks=RANKS, blocklen=BLOCK)
    finished = {}

    def rank_proc(rank):
        yield from mpifile.open()
        pieces = view.pieces(rank, count=ROUNDS)
        if collective:
            yield from mpifile.write_at_all(rank, pieces)
        else:
            yield from mpifile.write_at(rank, pieces)
        finished[rank] = cluster.engine.now

    for rank in range(RANKS):
        cluster.engine.process(rank_proc(rank))
    cluster.run(until=30.0)
    return max(finished.values()), cluster.sampler.op_count(op="write")


def test_collective_buffering():
    (t_ind, req_ind), (t_col, req_col) = _run(False), _run(True)
    print(f"\nindependent: {req_ind} requests in {t_ind * 1000:.2f} ms")
    print(f"collective : {req_col} requests in {t_col * 1000:.2f} ms "
          f"({t_ind / t_col:.2f}x faster, {req_ind / req_col:.0f}x fewer "
          f"requests)")
    assert req_ind == RANKS * ROUNDS
    assert req_col <= 4
    assert t_col < t_ind  # collective wins under per-request overhead
