"""Ablation — opportunity fairness (DESIGN.md §4.5).

ThemisIO enforces fairness only when demand exceeds capacity, by
renormalising token segments over backlogged jobs; a *mandatory*
assignment (draws over the full segment map, idle segments wasted)
models prior static-allocation systems. With an asymmetric load — one
job busy, one mostly idle — the mandatory variant wastes the idle job's
cycles and loses throughput; opportunity fairness keeps the device busy.
"""

from repro.harness import JobRun, run_experiment, scenario
from repro.units import MB
from repro.workloads import JobSpec, WriteReadCycle


def _run(opportunity_fair: bool):
    # Job 1 saturates; job 2 sends a trickle (2 low-rate streams).
    jobs = [
        JobRun(spec=JobSpec(job_id=1, user="busy", nodes=1),
               workload=WriteReadCycle(file_size=10 * MB,
                                       streams_per_node=16),
               start=0.0, stop=3.0),
        JobRun(spec=JobSpec(job_id=2, user="idle", nodes=1),
               workload=WriteReadCycle(file_size=1 * MB,
                                       streams_per_node=1),
               start=0.0, stop=3.0),
    ]
    result = run_experiment(scenario(
        "job-fair", jobs, scale=0.05, seed=0,
        opportunity_fair=opportunity_fair))
    return result.window_throughput(0.5, 3.0)


def test_opportunity_fairness_reclaims_idle_cycles():
    with_of, without_of = _run(True), _run(False)
    print(f"\nopportunity fairness ON : {with_of / 1e9:6.2f} GB/s")
    print(f"opportunity fairness OFF: {without_of / 1e9:6.2f} GB/s "
          f"(mandatory assignment wastes the idle job's segment)")
    # Mandatory assignment loses a double-digit fraction of the device
    # (wasted draws retry after a blocked-cycle delay, bounding the loss).
    assert with_of > without_of * 1.10
    assert with_of > 18e9
