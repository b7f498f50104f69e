#!/usr/bin/env python
"""Alternating parent/change pairs of one ledger workload (ROADMAP item A, part 2).

The protocol every perf PR ran by hand: check the base revision out
beside this tree, run the driver's own command (``python3 ledger/run.py
--workload W --seed N --seconds 12``) once per side and seed, seeds
12, 13, ... with the side that runs first flipped every pair, one
process at a time; then the held-out seed 2023 once (seeds and run
length are ``ledger/spec.py``'s). Each side runs the
``ledger/`` of its own checkout, as the driver does. Printed: a markdown
table of every end-to-end metric (per-side median and quartiles, wins /
pairs, the gap against the base's quartile distance), the runs pair by
pair, and whether ``trace_digest``, the ``sim_*`` metrics and every
count were equal at each seed.

Usage::

    python scripts/ledger_pairs.py <base-rev> --workload W [--pairs 10]
    python scripts/ledger_pairs.py HEAD --workload job_churn --pairs 1 --smoke

``--smoke`` runs one repeat of the tiny shapes per side (plumbing check:
timings mean nothing). Exits 1 if any exact value differs at any seed.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "ledger"))

import compare  # noqa: E402
import spec  # noqa: E402

#: the metric listed pair by pair (ROADMAP's headline number).
HEADLINE = "host_s_per_sim_s"


def checkout(rev: str, dest: str) -> None:
    """Unpack revision *rev* of this repository into *dest* (``git
    archive``: nothing is registered in ``.git``, nothing to prune)."""
    tar = subprocess.run(["git", "-C", _ROOT, "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)


def run_side(tree: str, workload: str, seed: int, smoke: bool,
             out: str) -> dict:
    """One ledger run of *tree*; returns its ``--out`` document."""
    cmd = [sys.executable, os.path.join(tree, "ledger", "run.py"),
           "--workload", workload, "--seed", str(seed), "--out", out]
    cmd += (["--smoke", "--repeats", "1"] if smoke
            else ["--seconds", str(spec.RUN_SECONDS)])
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    with open(out) as fh:
        return json.load(fh)


def run_pair(trees: dict, first: str, workload: str, seed: int,
             smoke: bool, tmp: str) -> dict:
    """Both sides at one seed, *first* first: ``{"base": doc, "change":
    doc, "seed": seed, "differs": [...]}`` with every exact value that
    differs."""
    second = "change" if first == "base" else "base"
    docs = {side: run_side(trees[side], workload, seed, smoke,
                           os.path.join(tmp, f"{side}.json"))
            for side in (first, second)}
    rows, mismatches = compare.compare(docs["base"], docs["change"])
    differs = [f"{metric}: {a['median']!r} != {b['median']!r}"
               for _w, metric, a, b, _bound, judged in rows
               if metric in spec.EXACT and judged != "same"]
    differs += [f"{metric}: {a!r} != {b!r}" for _w, metric, a, b in mismatches]
    return {**docs, "seed": seed, "differs": differs}


def _median(doc: dict, workload: str, metric: str) -> float:
    return doc["workloads"][workload]["end_to_end"][metric]["median"]


def _headline(pair: dict, workload: str) -> str:
    return (f"{_median(pair['base'], workload, HEADLINE):.4g} / "
            f"{_median(pair['change'], workload, HEADLINE):.4g}")


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _side(values: list) -> str:
    q1, q3 = _quartiles(values)
    return f"{statistics.median(values):.4g} ({q1:.4g} .. {q3:.4g})"


def table(workload: str, pairs: list) -> list:
    """The markdown rows of *pairs* (a list of :func:`run_pair` results)."""
    lines = [f"| `{workload}` | base median (q1 .. q3) | change median "
             f"(q1 .. q3) | |", "|---|---|---|---|"]
    for metric, _unit, better, bound in spec.END_TO_END:
        if metric in spec.EXACT:
            continue
        base = [_median(p["base"], workload, metric) for p in pairs]
        change = [_median(p["change"], workload, metric) for p in pairs]
        sign = 1.0 if better == "lower" else -1.0
        wins = sum(sign * (c - b) < 0 for b, c in zip(base, change))
        gap = statistics.median(change) - statistics.median(base)
        q1, q3 = _quartiles(base)
        rel = gap / abs(statistics.median(base)) if any(base) else 0.0
        lines.append(
            f"| `{metric}` | {_side(base)} | {_side(change)} | {rel:+.1%} "
            f"(bound {bound:.0%}), change better in {wins} / {len(pairs)} "
            f"pairs; gap {abs(gap):.3g} against a base quartile distance "
            f"of {q3 - q1:.3g} |")
    equal = sum(not p["differs"] for p in pairs)
    lines.append(f"| `trace_digest`, {', '.join(f'`{m}`' for m in spec.EXACT)}"
                 f", every count | | | equal at {equal} / {len(pairs)} seeds |")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("base", help="revision to compare this tree against")
    parser.add_argument("--workload", required=True,
                        choices=sorted(spec.WORKLOADS))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny shapes, one repeat: plumbing check only")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    with tempfile.TemporaryDirectory() as tmp:
        trees = {"base": os.path.join(tmp, "base"), "change": _ROOT}
        checkout(args.base, trees["base"])
        pairs = []
        for i in range(args.pairs):
            first = "base" if i % 2 == 0 else "change"
            pairs.append(run_pair(trees, first, args.workload,
                                  spec.DEFAULT_SEED + i, args.smoke, tmp))
            print(f"seed {pairs[-1]['seed']} ({first} first): "
                  f"{_headline(pairs[-1], args.workload)}",
                  file=sys.stderr, flush=True)
        held_out = run_pair(trees, "base", args.workload, spec.HELD_OUT_SEED,
                            args.smoke, tmp)

    size = ("--smoke --repeats 1" if args.smoke
            else f"--seconds {spec.RUN_SECONDS}")
    print(f"Base `{args.base}` vs this tree, `ledger/run.py --workload "
          f"{args.workload} --seed N {size}`, seeds {pairs[0]['seed']}-"
          f"{pairs[-1]['seed']}, order flipped every pair:\n")
    print("\n".join(table(args.workload, pairs)))
    print(f"\nPer pair (base / change, `{HEADLINE}`): "
          + ", ".join(_headline(p, args.workload) for p in pairs) + ".")
    print(f"\nHeld-out seed {spec.HELD_OUT_SEED}, once:\n")
    print("\n".join(table(args.workload, [held_out])))
    mismatches = [f"EXACT MISMATCH seed {pair['seed']} {line}"
                  for pair in pairs + [held_out] for line in pair["differs"]]
    for line in mismatches:
        print(line)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
