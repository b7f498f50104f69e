"""Compare two ledger documents written by ``run.py --out``.

    python ledger/compare.py A.json B.json

A is the base (the parent commit, or the first of two sets of runs of
one commit), B the candidate. One row per (workload, end-to-end metric)
with both medians, both min..max spreads, the bound and a verdict on
the medians:

``same``        B's median is within the bound of A's
``worse``       B's median is worse than A's by more than the bound
``better``      every repeat of B reads better than every repeat of A
``unresolved``  the spread of either side is wider than the bound and
                the two ranges overlap: this pair of runs cannot tell

Simulated metrics (``sim_*``), counts and trace digests are compared
exactly, and only when both documents used the same seed and shapes.
Exits 1 if any row is ``worse`` or any exact value differs.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import spec  # noqa: E402

#: per-layer metrics that are host time, not counts.
_TIMED_SUFFIXES = (".self_s", ".self_frac")
_TIMED = ("sim.host_us_per_event", "trace.overhead_x", "host.speed")


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """Judge candidate stat *b* against base stat *a* (see module doc)."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / abs(a["median"])
    spread = max((s["max"] - s["min"]) / abs(s["median"]) for s in (a, b))
    overlap = a["min"] <= b["max"] and b["min"] <= a["max"]
    if overlap and spread > bound:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if not overlap and worse_by < 0:
        return "better"
    return "same"


def exact_verdict(a: dict, b: dict, better: str) -> str:
    if a["median"] == b["median"]:
        return "same"
    improved = (b["median"] < a["median"]) == (better == "lower")
    return "better" if improved else "worse"


def _is_count(name: str) -> bool:
    return not (name.endswith(_TIMED_SUFFIXES) or name in _TIMED)


def _comparable(doc_a: dict, doc_b: dict) -> bool:
    """Same seed and shapes: simulated results must then be identical."""
    return (doc_a["seed"] == doc_b["seed"]
            and doc_a["smoke"] == doc_b["smoke"])


def compare(doc_a: dict, doc_b: dict) -> tuple:
    """Returns ``(rows, mismatches)``: the end-to-end table and every
    exact value (count or digest) that differs."""
    comparable = _comparable(doc_a, doc_b)
    rows, mismatches = [], []
    for name, rep_a in doc_a["workloads"].items():
        rep_b = doc_b["workloads"].get(name)
        if rep_b is None:
            continue
        for metric, _unit, better, bound in spec.END_TO_END:
            a, b = rep_a["end_to_end"][metric], rep_b["end_to_end"][metric]
            if metric not in spec.EXACT:
                judged = verdict(a, b, better, bound)
            elif comparable:
                judged = exact_verdict(a, b, better)
            else:
                judged = "n/a"
            rows.append((name, metric, a, b, bound, judged))
        if not comparable:
            continue
        if rep_a["trace_digest"] != rep_b["trace_digest"]:
            mismatches.append((name, "trace_digest", rep_a["trace_digest"],
                               rep_b["trace_digest"]))
        for metric, m in rep_a["per_layer"].items():
            other = rep_b["per_layer"].get(metric)
            if _is_count(metric) and other and other["value"] != m["value"]:
                mismatches.append((name, metric, m["value"], other["value"]))
    return rows, mismatches


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in argv:
        with open(path) as fh:
            docs.append(json.load(fh))
    rows, mismatches = compare(*docs)
    print(f"{'workload':12s} {'metric':18s} {'A median':>12s} "
          f"{'A min..max':>25s} {'B median':>12s} {'B min..max':>25s} "
          f"{'bound':>6s}  verdict")
    for name, metric, a, b, bound, judged in rows:
        print(f"{name:12s} {metric:18s} {a['median']:12.6g} "
              f"{a['min']:12.6g}..{a['max']:<11.6g} {b['median']:12.6g} "
              f"{b['min']:12.6g}..{b['max']:<11.6g} {bound:6.1%}  {judged}")
    if not _comparable(*docs):
        print("seeds or shapes differ: sim_*, counts and digests not compared")
    for name, metric, a, b in mismatches:
        print(f"EXACT MISMATCH {name} {metric}: {a!r} != {b!r}")
    tally = {}
    for row in rows:
        tally[row[-1]] = tally.get(row[-1], 0) + 1
    print("  ".join(f"{k}: {v}" for k, v in sorted(tally.items()))
          + f"  exact mismatches: {len(mismatches)}")
    return 1 if tally.get("worse") or mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
