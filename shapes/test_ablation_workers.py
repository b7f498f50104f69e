"""Ablation — I/O worker count (§4.1: "There can be multiple workers
for higher I/O throughput").

Workers share the device bandwidth, so for large transfers the count is
throughput-neutral; what workers buy is *request-level concurrency*: at
small request sizes the fixed per-op latency serialises on a single
worker and the device starves. The sweep shows throughput climbing with
worker count until the device (not the workers) is the bottleneck.
"""

from repro.harness import JobRun, run_experiment, scenario
from repro.bb.server import ServerConfig
from repro.units import GB, KiB, MB
from repro.workloads import JobSpec, WriteReadCycle


def _throughput(n_workers: int) -> float:
    server = ServerConfig(bandwidth=22 * GB, n_workers=n_workers,
                          op_latency=50e-6)
    jobs = [JobRun(
        spec=JobSpec(job_id=1, user="u", nodes=2),
        workload=WriteReadCycle(file_size=2 * MB, request_size=256 * KiB,
                                streams_per_node=16),
        start=0.0, stop=1.0)]
    result = run_experiment(scenario("job-fair", jobs, scale=1 / 60,
                                     seed=0, server=server,
                                     sample_interval=0.1))
    return result.window_throughput(0.2, 1.0)


def test_worker_count_sweep():
    counts = (1, 2, 4, 8)
    rates = {n: _throughput(n) for n in counts}
    print("\nworkers -> aggregate throughput")
    for n in counts:
        print(f"  {n:2d}: {rates[n] / 1e9:6.2f} GB/s")
    # More workers help until the device saturates.
    assert rates[2] > rates[1] * 1.3
    assert rates[8] > rates[1] * 2.0
    # Monotone (within noise).
    assert rates[4] >= rates[2] * 0.9
    assert rates[8] >= rates[4] * 0.9
