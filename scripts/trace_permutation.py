#!/usr/bin/env python
"""Is the difference between two sampler traces only a reordering of ties?

The ledger's ``trace_digest`` hashes the sampler's ``(time, job, bytes,
op)`` records in the order they were written. Two revisions whose
digests differ may still have simulated the same thing: records written
at the *bit-equal* time by *different servers* have no order the model
defines, only one the event queue's tie rule picks. This script records
which server wrote each record and checks exactly that.

Usage::

    python scripts/trace_permutation.py dump --tree TREE --workload W \
        --seed N --out FILE      # TREE: a checkout (its src/ and ledger/)
    python scripts/trace_permutation.py compare A.json B.json

``compare`` exits 0 when the final clock, the served bytes and the
records sorted by ``(time, job, bytes, op)`` are identical, every
server wrote its own records in the same order in both runs, and
every position whose record differs holds the same timestamp in both
— i.e. the runs differ by a permutation inside groups of records that
share a timestamp, and never within one server. It exits 1 otherwise.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys


class _TaggedSampler:
    """Forwards to the cluster's sampler, noting which server recorded."""

    def __init__(self, server: str, sampler, log: list):
        self._server, self._sampler, self._log = server, sampler, log

    def record(self, time, job_id, nbytes, op):
        self._log.append((time.hex(), job_id, nbytes, op, self._server))
        self._sampler.record(time, job_id, nbytes, op)

    def __getattr__(self, name):
        return getattr(self._sampler, name)


def dump(tree: str, workload: str, seed: int, out: str) -> int:
    """Run *workload* from the checkout at *tree* and save its records."""
    tree = os.path.abspath(tree)
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "ledger")]
    import workloads
    sc = workloads.build(workload, seed, False)
    log: list = []
    for server in sc.cluster.servers.values():
        server.sampler = _TaggedSampler(server.name, server.sampler, log)
    sc.cluster.engine.run(until=sc.horizon)
    with open(out, "w") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "now": sc.cluster.engine.now.hex(),
                   "served_bytes": sc.cluster.total_served_bytes(),
                   "events": sc.cluster.engine.stats()["scheduled_total"],
                   "records": log}, fh)
    print(f"{workload} seed {seed}: {len(log)} records -> {out}")
    return 0


def compare(path_a: str, path_b: str) -> int:
    """Report how the two dumps differ; 0 iff only ties were reordered."""
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    ra = [tuple(r) for r in a["records"]]
    rb = [tuple(r) for r in b["records"]]
    checks = {
        "final clock identical": a["now"] == b["now"],
        "served bytes identical": a["served_bytes"] == b["served_bytes"],
        "records sorted by (time, job, bytes, op) identical":
            sorted(map(_by_time, ra)) == sorted(map(_by_time, rb)),
        "each server's own record sequence identical":
            _per_server(ra) == _per_server(rb),
    }
    moved = [i for i, (x, y) in enumerate(zip(ra, rb)) if x != y]
    checks["every moved record keeps its exact timestamp"] = all(
        ra[i][0] == rb[i][0] for i in moved)
    groups = [len(list(g)) for _, g in itertools.groupby(
        moved, key=lambda i: ra[i][0])]
    print(f"{a['workload']} seed {a['seed']}: {len(ra)} records, "
          f"events scheduled {a['events']} -> {b['events']}")
    print(f"records in another position: {len(moved)}, in {len(groups)} "
          f"groups of one timestamp (largest {max(groups, default=0)})")
    for what, ok in checks.items():
        print(f"  {'ok  ' if ok else 'FAIL'} {what}")
    return 0 if all(checks.values()) else 1


def _by_time(record: tuple) -> tuple:
    return (float.fromhex(record[0]),) + record[1:4]


def _per_server(records: list) -> dict:
    out: dict = {}
    for rec in records:
        out.setdefault(rec[4], []).append(rec[:4])
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    sub = parser.add_subparsers(dest="cmd", required=True)
    d = sub.add_parser("dump")
    d.add_argument("--tree", default=os.path.dirname(
        os.path.dirname(os.path.abspath(__file__))))
    d.add_argument("--workload", required=True)
    d.add_argument("--seed", type=int, default=12)
    d.add_argument("--out", required=True)
    c = sub.add_parser("compare")
    c.add_argument("a")
    c.add_argument("b")
    args = parser.parse_args(argv)
    if args.cmd == "dump":
        return dump(args.tree, args.workload, args.seed, args.out)
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
