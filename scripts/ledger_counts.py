#!/usr/bin/env python
"""Gate the ledger's deterministic counts exactly (ROADMAP item A, part 3).

Runs the perf ledger at smoke sizes (``ledger/run.py --smoke --repeats 1
--trace``, every output check on) and compares, per workload, the
``trace_digest`` and the counts that say how much work a request costs —
events scheduled, messages sent, RPC calls, requests served, token draws
— with the committed ``LEDGER_COUNTS.json``. The counts have no noise:
any difference is a change to the request path or to the simulated
outcome, so an event or a message creeping back in fails CI without a
single timing. A change that means to move them re-records the file
with ``--update`` and says why in its description.

Usage::

    python scripts/ledger_counts.py            # exit 1 on any mismatch
    python scripts/ledger_counts.py --update   # rewrite LEDGER_COUNTS.json
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
          "core.draws")


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--update", action="store_true",
                        help="rewrite LEDGER_COUNTS.json from this run")
    args = parser.parse_args(argv)
    measured = measure()
    if args.update:
        with open(_COMMITTED, "w") as fh:
            json.dump(measured, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {_COMMITTED}")
        return 0
    with open(_COMMITTED) as fh:
        committed = json.load(fh)
    mismatches = [
        f"{workload} {key}: committed {want.get(key)!r}, measured "
        f"{measured.get(workload, {}).get(key)!r}"
        for workload, want in sorted(committed.items())
        for key in sorted(want)
        if measured.get(workload, {}).get(key) != want[key]]
    mismatches += [f"{workload}: not in LEDGER_COUNTS.json"
                   for workload in sorted(set(measured) - set(committed))]
    for line in mismatches:
        print("COUNT MISMATCH", line)
    print(f"{len(committed)} workloads x {len(COUNTS) + 1} exact values: "
          f"{len(mismatches)} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
