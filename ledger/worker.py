"""One repeat of one ledger workload, in a process of its own.

``run.py`` starts this module once per repeat, so imports and cold memo
caches count, as they do for a user who runs one scenario per process:
``setup_s`` runs from the parent's spawn time to the call of
``Engine.run``, and the timed region is ``Engine.run`` alone, with the
yardstick's ticks (``yardstick.py``) running inside it and their cost
taken off. The last line of standard output is one JSON object (see
:func:`main`).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(_HERE), "src"))
sys.path.insert(0, _HERE)

from yardstick import Yardstick  # noqa: E402

STEADY_SKIP = 0.25      # the sim_* metrics skip the first quarter of a run


def _digest(sc) -> str:
    """blake2b over the sampler's records, the final clock and the bytes
    served: equal digests mean the simulation did the same thing."""
    import numpy as np
    sampler = sc.cluster.sampler
    h = hashlib.blake2b(digest_size=16)
    # Private reads (debt for ROADMAP item D): the sampler exposes no
    # record iterator.
    h.update(np.asarray(sampler._times, dtype=np.float64).tobytes())
    h.update(np.asarray(sampler._jobs, dtype=np.int64).tobytes())
    h.update(np.asarray(sampler._bytes, dtype=np.int64).tobytes())
    h.update("\n".join(sampler._ops).encode())
    h.update(repr((sc.cluster.engine.now,
                   sc.cluster.total_served_bytes())).encode())
    return h.hexdigest()


def _sim_metrics(sc) -> dict:
    """Simulated throughput, fairness and variation in the steady window."""
    import numpy as np
    from repro.core.policy import Policy
    from repro.metrics.stats import jain_index
    cluster = sc.cluster
    sampler = cluster.sampler
    end = cluster.engine.now
    start = STEADY_SKIP * end
    # Fairness is judged per user: a user's delivered bytes over the
    # policy shares of the user's jobs. Every workload but job_churn
    # gives each job a user of its own, so there this is per job;
    # job_churn's 17-request jobs are too short to have a rate each.
    shares = Policy.parse(cluster.config.policy).shares(sc.io_jobs)
    delivered: dict = {}
    entitled: dict = {}
    for info in sc.io_jobs:
        delivered[info.user] = (delivered.get(info.user, 0.0)
                                + sampler.window_throughput(start, end,
                                                            info.job_id))
        entitled[info.user] = entitled.get(info.user, 0.0) + shares[info.job_id]
    ratios = [delivered[user] / entitled[user] for user in delivered]
    edges = [start + (end - start) * i / sc.cv_bins
             for i in range(sc.cv_bins + 1)]
    series = [sampler.window_throughput(lo, hi)
              for lo, hi in zip(edges, edges[1:])]
    mean = float(np.mean(series))
    return {
        "sim_gbps": sampler.window_throughput(start, end) / 1e9,
        "sim_fair_jain": float(jain_index(ratios)),
        "sim_tput_cv": float(np.std(series)) / mean if mean else 0.0,
    }


def _counts(sc) -> dict:
    """Deterministic per-layer counts, read from the existing surfaces."""
    from repro.bb.stats import server_stats
    cluster = sc.cluster
    engine = cluster.engine.stats()
    sync = cluster.sync_stats()
    faults = cluster.fault_stats.snapshot()
    servers = [server_stats(s) for s in cluster.servers.values()]
    contexts = ([s.ctx for s in cluster.servers.values()]
                + [c.ctx for c in cluster.clients.values()])
    draws = sum(s.draws for s in servers)
    wasted = sum(s.wasted_draws for s in servers)
    journal = getattr(cluster.fs, "journal", None)
    return {
        # Private read (debt for ROADMAP item D): Engine.stats() does
        # not report how many events were scheduled.
        "sim.events": cluster.engine._seq,
        "sim.cancelled": engine["cancelled_total"],
        "sim.compactions": engine["compactions"],
        "sim.pending_at_end": engine["pending"],
        "net.msgs": cluster.fabric.messages_sent,
        "net.payload_bytes": cluster.fabric.payload_bytes_sent,
        "net.msgs_dropped": cluster.fabric.dropped_messages,
        "ucx.rpc_timeouts": faults["rpc_timeouts"],
        "ucx.dropped": sum(ctx.dropped_count for ctx in contexts),
        "bb.served_ops": sum(s.served_requests for s in servers),
        "bb.idle_cycles": sum(s.idle_cycles for s in servers),
        "bb.lock_waits": sum(s.lock_waits for s in servers),
        "bb.sync_rounds": sync["sync_rounds"],
        "bb.sync_payload_bytes": (sync["coord_gather_payload_bytes"]
                                  + sync["relay_gather_payload_bytes"]),
        "bb.sync_full_pushes": sync["full_pushes"],
        "bb.sync_delta_pushes": sync["delta_pushes"],
        "bb.degraded_rounds": sync["degraded_rounds"],
        "bb.retries": faults["retries"],
        "bb.failovers": faults["failovers"],
        "bb.duplicate_requests": faults["duplicate_requests"],
        "core.draws": draws,
        "core.wasted_draws": wasted,
        "core.draw_useful_frac": 1.0 - wasted / draws if draws else 1.0,
        "fs.journal_records": len(journal) if journal is not None else 0,
        "fs.used_bytes": sum(s.used_bytes for s in servers),
    }


def _trace_report(tracer) -> dict:
    return {
        "wall_s": tracer.wall_s,
        "self_s": dict(tracer.self_s),
        "self_frac": tracer.fractions(),
        "calls": {
            "ucx.rpc_calls": tracer.calls("ucx", "RpcClient.call"),
            "core.share_recompute_calls": tracer.calls(
                "core", "StatisticalTokenScheduler.on_jobs_changed",
                "StatisticalTokenScheduler.set_assignment"),
            "core.placement_share_calls": tracer.calls(
                "core", "placement_shares"),
            "core.table_merge_calls": tracer.calls(
                "core", "JobStatusTable.merge"),
            "fs.lock_acquire_calls": tracer.calls(
                "fs", "RangeLockTable.try_lock_write"),
            "fs.lock_wait_calls": tracer.calls(
                "fs", "_WaiterMixin.wait"),
            "fs.store_write_calls": tracer.calls(
                "fs", "StorageNode.write_chunk"),
        },
        "top_spans": tracer.top_spans(),
    }


def _problems(sc) -> list:
    """The output checks; an empty list means the run was correct."""
    cluster = sc.cluster
    problems = []
    sampled, served = cluster.sampler.total_bytes(), cluster.total_served_bytes()
    if sampled != served:
        problems.append(f"sampler saw {sampled} bytes, servers served {served}")
    if served <= 0:
        problems.append("no data bytes were served")
    if sc.unfinished:
        problems.append(f"{sc.unfinished} finite jobs unfinished at the "
                        f"horizon")
    if not sc.errors_allowed:
        for server in cluster.servers.values():
            if server.errors:
                problems.append(f"{server.name}: {len(server.errors)} "
                                f"request errors, first {server.errors[0]!r}")
    for check in sc.checks:
        problems.extend(check())
    return problems


def main(argv=None) -> int:
    """Run one repeat; print its record as the last line of stdout."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True,
                        help="time.monotonic() of the parent at spawn")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--chrome", help="write the kept spans here")
    args = parser.parse_args(argv)

    import workloads
    sc = workloads.build(args.workload, args.seed, args.smoke)
    engine = sc.cluster.engine
    yard = Yardstick()
    tracer = None
    if args.trace:
        from tracer import LayerTracer
        tracer = LayerTracer()
    setup_s = time.monotonic() - args.spawned
    begin = time.perf_counter()
    if tracer is None:
        # The yardstick ticks while the engine runs; what the ticks
        # cost is taken off the run time.
        yard.start()
        engine.run(until=sc.horizon)
        yard.stop()
    else:
        # The traced repeat goes without: its times are never end-to-end
        # ones, and the profiler would see the ticks.
        tracer.run(lambda: engine.run(until=sc.horizon))
    run_s = time.perf_counter() - begin - yard.tick_s
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    ops = sc.count_ops(sc)
    failed = (sc.cluster.fault_stats.requests_failed + sc.unfinished
              + sum(len(s.errors) for s in sc.cluster.servers.values()))
    record = {
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
        "traced": args.trace,
        "setup_s": setup_s, "run_s": run_s, "sim_s": engine.now,
        "host_speed": yard.host_speed() if yard.ticks else None,
        "ticks": yard.ticks,
        "ops": ops, "attempted": ops + failed, "failed": failed,
        "abandoned": sc.abandoned[:5],
        "peak_rss_mb": peak_rss_mb,
        "sim": _sim_metrics(sc),
        "trace_digest": _digest(sc),
        "counts": _counts(sc),
        "problems": _problems(sc),
    }
    if tracer is not None:
        record["trace"] = _trace_report(tracer)
        if args.chrome:
            with open(args.chrome, "w") as fh:
                json.dump(tracer.chrome_trace(), fh)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
