"""The perf ledger: run the paper-shaped workloads and report every metric.

    python ledger/run.py [--workload W] [--seed N] [--repeats R | --seconds S]
                         [--trace [0|1]] [--smoke] [--out FILE]

Each repeat of each workload is one fresh single-threaded worker process
(``worker.py``), run strictly one at a time. Untraced repeats give the
end-to-end metrics (median, min, max, count; host times scaled to a
reference host by ``yardstick.py``) and the deterministic counts; ``--trace`` makes one more repeat under the layer tracer for the
per-layer self times. Output checks run in every repeat and across
repeats; any failure exits non-zero. The last line of standard output
for each workload is the one-line JSON result the benchmark contract
asks for; ``--out`` saves the full document ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, _HERE)

import spec  # noqa: E402

_WORKER = os.path.join(_HERE, "worker.py")
_SRC = os.path.join(os.path.dirname(_HERE), "src", "repro")
#: the contract allows a run 180 s; no single repeat may eat all of it.
_WORKER_TIMEOUT = 150
DEFAULT_REPEATS = 5


class LedgerError(RuntimeError):
    """A worker could not produce a record."""


def spawn(workload: str, seed: int, smoke: bool, trace: bool = False,
          chrome: str = "") -> dict:
    """Run one repeat in a fresh process; returns the worker's record."""
    cmd = [sys.executable, _WORKER, "--workload", workload,
           "--seed", str(seed), "--spawned", repr(time.monotonic())]
    if smoke:
        cmd.append("--smoke")
    if trace:
        cmd.append("--trace")
    if chrome:
        cmd += ["--chrome", chrome]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=_WORKER_TIMEOUT)
    if proc.returncode != 0:
        raise LedgerError(f"worker for {workload} exited "
                          f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def _stat(values: list, unit: str) -> dict:
    """Summary of one metric over the repeats."""
    return {"unit": unit, "median": statistics.median(values),
            "min": min(values), "max": max(values), "n": len(values),
            "values": values}


def _end_to_end(records: list) -> dict:
    """Every end-to-end metric over the untraced repeats. Host times are
    reference-host seconds: measured seconds times the repeat's
    ``host_speed`` (see yardstick.py)."""
    setup = [r["setup_s"] * r["host_speed"] for r in records]
    run = [r["run_s"] * r["host_speed"] for r in records]
    columns = {
        "setup_s": setup,
        "host_s_per_sim_s": [t / r["sim_s"] for t, r in zip(run, records)],
        "ops_per_host_s": [r["ops"] / t for t, r in zip(run, records)],
        "peak_rss_mb": [r["peak_rss_mb"] for r in records],
        "ops_failed_frac": [r["failed"] / r["attempted"] for r in records],
    }
    for name in records[0]["sim"]:
        columns[name] = [r["sim"][name] for r in records]
    return {name: _stat(columns[name], unit)
            for name, unit, _better, _bound in spec.END_TO_END}


def _per_layer(records: list, traced: dict | None) -> dict:
    """Counts of the first repeat (all repeats agree), ratios derived
    from them, and the traced repeat's self times and call counts."""
    first = records[0]
    values = dict(first["counts"])
    ops = max(first["ops"], 1)
    run_s = statistics.median(r["run_s"] for r in records)
    speed = statistics.median(r["host_speed"] for r in records)
    values["host.speed"] = speed
    values["sim.events_per_op"] = values["sim.events"] / ops
    values["sim.host_us_per_event"] = (run_s * speed
                                       / values["sim.events"] * 1e6)
    values["net.msgs_per_op"] = values["net.msgs"] / ops
    if traced is not None:
        trace = traced["trace"]
        for layer, seconds in trace["self_s"].items():
            values[f"{layer}.self_s"] = seconds
        for layer, frac in trace["self_frac"].items():
            values[f"{layer}.self_frac"] = frac
        values.update(trace["calls"])
        # Measured seconds on both sides: the traced repeat has no ticks.
        values["trace.overhead_x"] = trace["wall_s"] / run_s
    units = {name: unit for name, unit, _better in spec.PER_LAYER}
    return {name: {"value": values[name], "unit": units[name]}
            for name in units if name in values}


def _same(records: list) -> list:
    """Simulated results must not depend on the repeat (or on tracing)."""
    problems = []
    first = records[0]
    for i, rec in enumerate(records[1:], start=2):
        kind = "traced repeat" if rec["traced"] else f"repeat {i}"
        for key in ("trace_digest", "sim", "counts", "ops", "sim_s",
                    "failed"):
            if rec[key] != first[key]:
                problems.append(f"{kind} disagrees with repeat 1 on {key}: "
                                f"{rec[key]!r} != {first[key]!r}")
    return problems


def measure(workload: str, seed: int, repeats: int, seconds: float,
            trace: bool, smoke: bool, chrome: str = "") -> dict:
    """All repeats of one workload, checked and summarised."""
    records = []
    measured = 0.0
    if seconds:
        repeats = spec.MIN_REPEATS
    while len(records) < repeats or measured < seconds:
        records.append(spawn(workload, seed, smoke))
        measured += records[-1]["run_s"]
    traced = spawn(workload, seed, smoke, True, chrome) if trace else None
    every = records + ([traced] if traced else [])
    problems = [p for rec in every for p in rec["problems"]] + _same(every)
    return {
        "workload": workload, "op": spec.WORKLOADS[workload][1],
        "seed": seed, "smoke": smoke, "repeats": len(records),
        "correct": not problems, "problems": problems,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "abandoned": records[0]["abandoned"],
        "ops": records[0]["ops"], "sim_s": records[0]["sim_s"],
        "trace_digest": records[0]["trace_digest"],
        "end_to_end": _end_to_end(records),
        "per_layer": _per_layer(records, traced),
        # What the clock said, before the yardstick: measured seconds.
        "measured": {key: [r[key] for r in records]
                     for key in ("setup_s", "run_s", "host_speed", "ticks")},
        "top_spans": traced["trace"]["top_spans"] if traced else [],
    }


def contract_line(report: dict, traced: bool) -> str:
    """The one JSON object the benchmark contract reads: medians over
    the run's repeats."""
    def median(name):
        stat = report["end_to_end"][name]
        return {"value": stat["median"], "unit": stat["unit"]}

    if traced:
        metrics = {name: report["per_layer"].get(name) or median(name)
                   for name, _unit, _better in spec.CONTRACT_PER_LAYER}
    else:
        metrics = {name: median(name)
                   for name, _unit, _better, _bound in spec.END_TO_END
                   if name not in spec.UNBOUNDED}
    return json.dumps({"correct": report["correct"],
                       "attempted": report["attempted"],
                       "failed": report["failed"], "metrics": metrics})


def print_report(report: dict) -> None:
    """Every metric by name, with its unit."""
    print(f"== {report['workload']}  seed {report['seed']}  "
          f"{report['repeats']} repeats  op = {report['op']}  "
          f"({report['ops']} ops in {report['sim_s']:.4g} simulated s)")
    for name, m in report["end_to_end"].items():
        print(f"  {name:28s} {m['median']:14.6g} {m['unit']:6s} "
              f"[{m['min']:.6g} .. {m['max']:.6g}] n={m['n']}")
    print(f"  {'trace_digest':28s} {report['trace_digest']}")
    for name, m in report["per_layer"].items():
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']}")
    for problem in report["problems"]:
        print(f"  CHECK FAILED: {problem}")


def host_facts() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "machine": platform.machine(), "system": platform.system()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS),
                        help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--repeats", type=int, default=DEFAULT_REPEATS,
                        help="untraced repeats per workload")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="instead of --repeats: repeat until this much "
                             "Engine.run time is measured")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="add one traced repeat and "
                        "report the per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny shapes: checks the plumbing only")
    parser.add_argument("--out", help="write the full JSON document here")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")
    if not os.path.isdir(_SRC):
        print(f"ledger: no simulator at {_SRC}", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    document = {"schema": 1, "host": host_facts(), "seed": args.seed,
                "smoke": args.smoke, "traced": bool(args.trace),
                "workloads": {}}
    for name in names:
        chrome = f"{args.out}.{name}.trace.json" if args.out else ""
        try:
            report = measure(name, args.seed, args.repeats, args.seconds,
                             bool(args.trace), args.smoke, chrome)
        except (LedgerError, subprocess.TimeoutExpired) as exc:
            print(f"ledger: {exc}", file=sys.stderr)
            return 2
        document["workloads"][name] = report
        print_report(report)
        print(contract_line(report, bool(args.trace)), flush=True)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(document, fh, indent=1)
    return 0 if all(r["correct"]
                    for r in document["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
