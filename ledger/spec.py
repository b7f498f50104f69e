"""The ledger's contract: workloads, metrics, units, bounds, seeds.

This module is the single source for what ``run.py`` reports and what
``/BENCHMARK.json`` declares; ``python ledger/spec.py`` prints the
latter, and ``test_ledger.py`` checks the committed file against it.
Definitions of every metric are in README.md.
"""

from __future__ import annotations

import json

#: seed used while developing a change.
DEFAULT_SEED = 12
#: seed for confirming a claim, never for developing it.
HELD_OUT_SEED = 2023

#: seconds of ``Engine.run`` one driver run measures (summed over the
#: run's repeats).
RUN_SECONDS = 12
#: a run makes at least this many repeats, so every median has a spread.
MIN_REPEATS = 3

#: name -> (why it is here, what one "op" is).
WORKLOADS = {
    "fig07_write": (
        "Fig. 7 at 128 servers, sequential 8 MB writes: the data path "
        "does the work and no sync round fires, so a sync or policy "
        "change must show no change here",
        "served data request"),
    "fig07_read": (
        "same cluster and streams reading: no range lock, no inode "
        "growth, so fs does less while sim/ucx/net do the same; a "
        "write-path gain that costs reads shows",
        "served data request"),
    "job_churn": (
        "384 short jobs arriving 0.5 ms apart on 2 slow servers: share "
        "recomputation per job-set change, placement shares, sampled "
        "dequeue, lock conflicts; core dominates, the data path is idle",
        "served request"),
    "sync_scale": (
        "128 servers, lambda 10 ms, fanout-8 tree, 131 heart-beating "
        "jobs, Fig. 14 writers on 8 servers: sync rounds and table "
        "merges do the work, so a data-path change must show no change",
        "completed server sync epoch"),
    "outage": (
        "4 journaled log-store servers, one crashes and restarts under "
        "24 streams with real payloads: timers, retry, failover, dedup, "
        "degraded sync, replay; the only workload whose ops can fail",
        "served request (deduplicated)"),
}

#: (name, unit, better, bound): what a user of the simulator sees.
#: ``bound`` is the share of the base median by which the metric may
#: worsen before a change counts as a regression. Host-time bounds are
#: wide because this kind of host is noisy (README.md, "Noise").
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("host_s_per_sim_s", "s/s", "lower", 0.25),
    ("ops_per_host_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
    ("ops_failed_frac", "frac", "lower", 0.0),
    ("sim_gbps", "GB/s", "higher", 0.15),
    ("sim_fair_jain", "ratio", "higher", 0.03),
    ("sim_tput_cv", "ratio", "lower", 0.25),
)

#: end-to-end metrics of simulated time: with one seed they must repeat
#: exactly, whatever the host does.
EXACT = ("ops_failed_frac", "sim_gbps", "sim_fair_jain", "sim_tput_cv")

#: end-to-end metrics the driver's contract cannot bound: the first is 0
#: on a healthy tree (it travels as ``failed`` / ``attempted``), the
#: second swings by more than any allowed bound from seed to seed
#: (it is listed with the per-layer metrics there, unbounded).
UNBOUNDED = ("ops_failed_frac", "sim_tput_cv")

_SELF = tuple((f"{layer}.self_s", "s", "lower")
              for layer in ("sim", "net", "ucx", "bb", "core", "fs"))
_FRAC = tuple((f"{layer}.self_frac", "frac", "lower")
              for layer in ("sim", "net", "ucx", "bb", "core", "fs",
                            "metrics", "faults", "workloads"))

#: (name, unit, better): one layer's work, cost or waste. Counts are
#: "lower is better" per op unless they count useful work.
PER_LAYER = _SELF + _FRAC + (
    ("sim.events", "count", "lower"),
    ("sim.events_per_op", "1/op", "lower"),
    ("sim.host_us_per_event", "us", "lower"),
    ("sim.cancelled", "count", "lower"),
    ("sim.compactions", "count", "lower"),
    ("sim.pending_at_end", "count", "lower"),
    ("net.msgs", "count", "lower"),
    ("net.msgs_per_op", "1/op", "lower"),
    ("net.payload_bytes", "B", "lower"),
    ("net.msgs_dropped", "count", "lower"),
    ("ucx.rpc_calls", "count", "lower"),
    ("ucx.rpc_timeouts", "count", "lower"),
    ("ucx.dropped", "count", "lower"),
    ("bb.served_ops", "count", "higher"),
    ("bb.idle_cycles", "count", "lower"),
    ("bb.lock_waits", "count", "lower"),
    ("bb.sync_rounds", "count", "higher"),
    ("bb.sync_payload_bytes", "B", "lower"),
    ("bb.sync_full_pushes", "count", "lower"),
    ("bb.sync_delta_pushes", "count", "lower"),
    ("bb.degraded_rounds", "count", "lower"),
    ("bb.retries", "count", "lower"),
    ("bb.failovers", "count", "lower"),
    ("bb.duplicate_requests", "count", "lower"),
    ("core.draws", "count", "lower"),
    ("core.wasted_draws", "count", "lower"),
    ("core.draw_useful_frac", "frac", "higher"),
    ("core.share_recompute_calls", "count", "lower"),
    ("core.placement_share_calls", "count", "lower"),
    ("core.table_merge_calls", "count", "lower"),
    ("fs.lock_acquire_calls", "count", "lower"),
    ("fs.lock_wait_calls", "count", "lower"),
    ("fs.store_write_calls", "count", "lower"),
    ("fs.journal_records", "count", "lower"),
    ("fs.used_bytes", "B", "lower"),
    ("trace.overhead_x", "ratio", "lower"),
    # The host, not a layer of the simulator: reference-host seconds per
    # measured second over the run's repeats (yardstick.py).
    ("host.speed", "ratio", "higher"),
)

#: what ``--trace 1`` prints for the driver: the per-layer metrics plus
#: the end-to-end one it cannot bound.
CONTRACT_PER_LAYER = PER_LAYER + (("sim_tput_cv", "ratio", "lower"),)


def benchmark_json() -> dict:
    """The content of ``/BENCHMARK.json``."""
    return {
        "command": ["python3", "ledger/run.py"],
        "paths": ["ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, (why, _op) in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END
                       if n not in UNBOUNDED],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in CONTRACT_PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
