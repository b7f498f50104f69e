#!/usr/bin/env python
"""Quickstart: share one burst-buffer server between two competing jobs.

Builds a single-server ThemisIO deployment with the ``size-fair``
policy, runs a 4-node job against a 1-node job (the Fig. 8(a) scenario),
and prints each job's median throughput plus the achieved sharing ratio.

Run:  python examples/quickstart.py
"""

from repro import JobSpec, run_experiment
from repro.harness import sparkline
from repro.harness.experiments import timeline
from repro.harness.report import ratio
from repro.units import fmt_bw


def main() -> None:
    print("ThemisIO quickstart: size-fair, 4-node vs 1-node job")
    print("(job 1 runs the full window; job 2 joins a quarter in)\n")

    config = timeline("size-fair",
                      [JobSpec(job_id=1, user="userA", nodes=4),
                       JobSpec(job_id=2, user="userB", nodes=1)],
                      scale=0.1, seed=0)
    out = run_experiment(config)

    # The Fig. 8(a) time-series shape, as terminal sparklines.
    device = 22e9
    for job_id in (1, 2):
        _, rates = out.series(job_id)
        print(f"job {job_id} throughput |{sparkline(rates, ceiling=device)}|")
    print(" " * 18 + "^ job 2 joins, job 1 drops to its 4/5 share")
    print()
    # Job 1 alone before job 2 joins; both while job 2 runs.
    job2 = config.jobs[1]
    edge = 2 * config.sample_interval
    solo = out.median_throughput(1, t0=edge, t1=job2.start)
    shared = [out.median_throughput(job_id, t0=job2.start + edge,
                                    t1=job2.stop) for job_id in (1, 2)]
    print(f"job 1 unopposed median : {fmt_bw(solo)}")
    print(f"shared medians         : {fmt_bw(shared[0])} vs "
          f"{fmt_bw(shared[1])}")
    print(f"sharing ratio          : {ratio(shared[0] / shared[1])}  "
          f"(node-count ratio is 4.00x)")
    print()
    print("Try policy='job-fair' above: the same jobs then split evenly.")


if __name__ == "__main__":
    main()
