#!/usr/bin/env python
"""Gate the ledger's deterministic counts exactly (ROADMAP item A, part 3).

Runs the perf ledger at smoke sizes (``ledger/run.py --smoke --repeats 1
--trace``, every output check on) and compares, per workload, the
``trace_digest`` and the counts that say how much work a request costs —
events scheduled, messages sent, RPC calls, requests served, token draws
— plus the λ-sync rounds completed and completed degraded, and the calls
that say how much work a job-set change costs — job-table merges, token
installs (share recomputations) and placement-share requests — and the
calls the lock tables and the chunk store take — range-lock attempts,
lock waits and chunk writes, counted by function name, so that a
function inlined away reads 0 here — with the committed
``LEDGER_COUNTS.json``. The counts have no noise: any
difference is a change to the request path, to λ-sync or to the
simulated outcome, so an event, a message or a sync round creeping in
or out fails CI without a single timing (a sync change can leave the
sampler's records, and so the digest, alone). A change that means to move them re-records the file
with ``--update`` and says why in its description; ``--only`` names the
counts it means to move, so that the re-record cannot absorb a change
to anything else (the digest above all).

Usage::

    python scripts/ledger_counts.py            # exit 1 on any mismatch
    python scripts/ledger_counts.py --update   # rewrite LEDGER_COUNTS.json
    python scripts/ledger_counts.py --update --only sim.events
                     # rewrite those counts; exit 1 if any other differs
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_COMMITTED = os.path.join(_ROOT, "LEDGER_COUNTS.json")

#: per-layer counts gated next to the trace digest.
COUNTS = ("sim.events", "net.msgs", "ucx.rpc_calls", "bb.served_ops",
          "core.draws", "bb.sync_rounds", "bb.degraded_rounds",
          "core.table_merge_calls", "core.share_recompute_calls",
          "core.placement_share_calls", "fs.lock_acquire_calls",
          "fs.lock_wait_calls", "fs.store_write_calls")


def measure() -> dict:
    """``{workload: {"trace_digest": ..., count: ...}}`` of a smoke run."""
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "smoke.json")
        subprocess.run(
            [sys.executable, os.path.join(_ROOT, "ledger", "run.py"),
             "--smoke", "--repeats", "1", "--trace", "--out", out],
            check=True)
        with open(out) as fh:
            document = json.load(fh)
    return {
        name: {"trace_digest": report["trace_digest"],
               **{count: report["per_layer"][count]["value"]
                  for count in COUNTS}}
        for name, report in document["workloads"].items()}


def mismatches(committed: dict, measured: dict, skip=()) -> list:
    """One line per committed value that *measured* does not repeat
    (keys in *skip* excepted) and per workload missing on either side."""
    lines = [
        f"{workload} {key}: committed {want.get(key)!r}, measured "
        f"{measured.get(workload, {}).get(key)!r}"
        for workload, want in sorted(committed.items())
        for key in sorted(want)
        if key not in skip
        and measured.get(workload, {}).get(key) != want[key]]
    lines += [f"{workload}: not in LEDGER_COUNTS.json"
              for workload in sorted(set(measured) - set(committed))]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--update", action="store_true",
                        help="rewrite LEDGER_COUNTS.json from this run")
    parser.add_argument("--only", metavar="KEY[,KEY]",
                        help="with --update: rewrite only these counts and "
                             "exit 1 if any other committed value differs")
    args = parser.parse_args(argv)
    only = tuple(args.only.split(",")) if args.only else ()
    if only and not args.update:
        parser.error("--only goes with --update")
    if set(only) - set(COUNTS):
        parser.error(f"--only takes counts out of {', '.join(COUNTS)}")
    measured = measure()
    if args.update and not only:
        write(measured)
        return 0
    with open(_COMMITTED) as fh:
        committed = json.load(fh)
    wrong = mismatches(committed, measured, skip=only)
    for line in wrong:
        print("COUNT MISMATCH", line)
    print(f"{len(committed)} workloads x {len(COUNTS) + 1 - len(only)} exact "
          f"values: {len(wrong)} mismatches")
    if only and not wrong:
        for workload, values in committed.items():
            for key in only:
                print(f"{workload} {key}: {values.get(key)!r} -> "
                      f"{measured[workload][key]!r}")
                values[key] = measured[workload][key]
        write(committed)
    return 1 if wrong else 0


def write(document: dict) -> None:
    with open(_COMMITTED, "w") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {_COMMITTED}")


if __name__ == "__main__":
    sys.exit(main())
