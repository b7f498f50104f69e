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
pairs, the gap against the base's quartile distance), each of those
metrics pair by pair, then two exact rows: at how many seeds
``trace_digest`` and the exact metrics (``sim_*``, ``ops_failed_frac``)
were equal, and at how many every count was, naming each count that
differed. A change meant to move ``sim.events`` alone reads "equal at
N / N seeds" in the first row and names ``sim.events`` in the second.

``--trace N`` then runs N traced repeats per side (``ledger/run.py
--repeats 1 --trace``, seeds 12, 13, ..., order flipped as above) and
prints each layer's ``self_s`` and ``self_frac`` medians per side: where
a saving sits. A traced repeat runs without the yardstick
(``ledger/worker.py``), so nothing scales its seconds for host speed,
and a host that drifts between the sides moves every layer's
``self_s`` alike; ``self_frac`` (a layer's share of the traced run)
cancels that drift, and a layer the change does not touch keeps its
seconds, so its fraction grows as the rest shrinks. Read the two
columns together.

Usage::

    python scripts/ledger_pairs.py <base-rev> --workload W [--pairs 10]
                                   [--trace N]
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

#: the metric printed per seed while the pairs run (ROADMAP's headline).
HEADLINE = "host_s_per_sim_s"

#: the end-to-end metrics judged pair by pair; the exact ones are
#: judged by equality instead.
JUDGED = [(metric, better, bound)
          for metric, _unit, better, bound in spec.END_TO_END
          if metric not in spec.EXACT]

#: the per-layer self times and self fractions a traced repeat reports.
SELF_TIMES = [name for name, _unit, _better in spec.PER_LAYER
              if name.endswith(".self_s")]
SELF_FRACS = [name for name, _unit, _better in spec.PER_LAYER
              if name.endswith(".self_frac")]


def checkout(rev: str, dest: str) -> None:
    """Unpack revision *rev* of this repository into *dest* (``git
    archive``: nothing is registered in ``.git``, nothing to prune)."""
    tar = subprocess.run(["git", "-C", _ROOT, "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest)


def run_side(tree: str, workload: str, seed: int, smoke: bool,
             out: str, trace: bool = False) -> dict:
    """One ledger run of *tree*; returns its ``--out`` document. With
    *trace*, one untraced and one traced repeat."""
    cmd = [sys.executable, os.path.join(tree, "ledger", "run.py"),
           "--workload", workload, "--seed", str(seed), "--out", out]
    if trace:
        cmd += ["--repeats", "1", "--trace"] + (["--smoke"] if smoke else [])
    else:
        cmd += (["--smoke", "--repeats", "1"] if smoke
                else ["--seconds", str(spec.RUN_SECONDS)])
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    with open(out) as fh:
        return json.load(fh)


def run_pair(trees: dict, first: str, workload: str, seed: int,
             smoke: bool, tmp: str) -> dict:
    """Both sides at one seed, *first* first: ``{"base": doc, "change":
    doc, "seed": seed, "outcome": [...], "counts": {...}}``, with a line
    per differing ``trace_digest`` or exact metric and ``{count: line}``
    per differing count."""
    second = "change" if first == "base" else "base"
    docs = {side: run_side(trees[side], workload, seed, smoke,
                           os.path.join(tmp, f"{side}.json"))
            for side in (first, second)}
    rows, mismatches = compare.compare(docs["base"], docs["change"])
    outcome = [f"{metric}: {a['median']!r} != {b['median']!r}"
               for _w, metric, a, b, _bound, judged in rows
               if metric in spec.EXACT and judged != "same"]
    counts = {}
    for _w, metric, a, b in mismatches:
        if metric == "trace_digest":
            outcome.append(f"{metric}: {a!r} != {b!r}")
        else:
            counts[metric] = f"{metric}: {a!r} != {b!r}"
    return {**docs, "seed": seed, "outcome": outcome, "counts": counts}


def _median(doc: dict, workload: str, metric: str) -> float:
    return doc["workloads"][workload]["end_to_end"][metric]["median"]


def _pair_values(pair: dict, workload: str, metric: str) -> str:
    return (f"{_median(pair['base'], workload, metric):.4g} / "
            f"{_median(pair['change'], workload, metric):.4g}")


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
    for metric, better, bound in JUDGED:
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
    equal = sum(not p["outcome"] for p in pairs)
    lines.append(f"| `trace_digest`, {', '.join(f'`{m}`' for m in spec.EXACT)}"
                 f" | | | equal at {equal} / {len(pairs)} seeds |")
    equal = sum(not p["counts"] for p in pairs)
    moved = ", ".join(
        f"`{count}` at {sum(count in p['counts'] for p in pairs)}"
        for count in sorted(set().union(*(p["counts"] for p in pairs))))
    lines.append(f"| every count | | | equal at {equal} / {len(pairs)} seeds"
                 f"{'; differ: ' + moved if moved else ''} |")
    return lines


def traced(trees: dict, workload: str, repeats: int, smoke: bool,
           tmp: str) -> list:
    """*repeats* traced runs per side, the side that runs first flipped
    every seed: ``[{"base": {metric: value}, "change": {...}}, ...]``,
    with every self time and self fraction the run reports."""
    runs = []
    for i in range(repeats):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        docs = {side: run_side(trees[side], workload, spec.DEFAULT_SEED + i,
                               smoke, os.path.join(tmp, f"{side}.json"),
                               trace=True)
                for side in order}
        layers = {side: doc["workloads"][workload]["per_layer"]
                  for side, doc in docs.items()}
        runs.append({side: {metric: layer[metric]["value"]
                            for metric in SELF_TIMES + SELF_FRACS
                            if metric in layer}
                     for side, layer in layers.items()})
    return runs


def _medians(runs: list, metric: str) -> str:
    """``| base | change | relative |`` cells of *metric* over *runs*,
    blank when the traced run does not report it."""
    if metric not in runs[0]["base"]:
        return " | | |"
    base = statistics.median(r["base"][metric] for r in runs)
    change = statistics.median(r["change"][metric] for r in runs)
    rel = (change - base) / base if base else 0.0
    return f" {base:.4g} | {change:.4g} | {rel:+.1%} |"


def layer_table(workload: str, runs: list) -> list:
    """The markdown rows of each layer's self seconds and self fraction
    (medians per side) over *runs*."""
    lines = [f"| `{workload}` traced | base `self_s` | change `self_s` | "
             f"| base `self_frac` | change `self_frac` | |",
             "|---|---|---|---|---|---|---|"]
    for frac in SELF_FRACS:
        layer = frac[:-len(".self_frac")]
        lines.append(f"| `{layer}` |" + _medians(runs, f"{layer}.self_s")
                     + _medians(runs, frac))
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
    parser.add_argument("--trace", type=int, default=0, metavar="N",
                        help="after the pairs, N traced repeats per side: "
                             "per-layer self seconds and self fractions")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    if args.trace < 0:
        parser.error("--trace must be >= 0")

    with tempfile.TemporaryDirectory() as tmp:
        trees = {"base": os.path.join(tmp, "base"), "change": _ROOT}
        checkout(args.base, trees["base"])
        pairs = []
        for i in range(args.pairs):
            first = "base" if i % 2 == 0 else "change"
            pairs.append(run_pair(trees, first, args.workload,
                                  spec.DEFAULT_SEED + i, args.smoke, tmp))
            print(f"seed {pairs[-1]['seed']} ({first} first): "
                  f"{_pair_values(pairs[-1], args.workload, HEADLINE)}",
                  file=sys.stderr, flush=True)
        held_out = run_pair(trees, "base", args.workload, spec.HELD_OUT_SEED,
                            args.smoke, tmp)
        runs = traced(trees, args.workload, args.trace, args.smoke, tmp)

    size = ("--smoke --repeats 1" if args.smoke
            else f"--seconds {spec.RUN_SECONDS}")
    print(f"Base `{args.base}` vs this tree, `ledger/run.py --workload "
          f"{args.workload} --seed N {size}`, seeds {pairs[0]['seed']}-"
          f"{pairs[-1]['seed']}, order flipped every pair:\n")
    print("\n".join(table(args.workload, pairs)))
    print("\nPer pair (base / change):\n")
    for metric, _better, _bound in JUDGED:
        print(f"- `{metric}`: " + ", ".join(
            _pair_values(p, args.workload, metric) for p in pairs) + ".")
    print(f"\nHeld-out seed {spec.HELD_OUT_SEED}, once:\n")
    print("\n".join(table(args.workload, [held_out])))
    if runs:
        print(f"\nTraced (`ledger/run.py --workload {args.workload} --seed N"
              f" --repeats 1 --trace`), {len(runs)} per side, seeds "
              f"{spec.DEFAULT_SEED}-{spec.DEFAULT_SEED + len(runs) - 1}, "
              f"self seconds and self fractions (medians):\n")
        print("\n".join(layer_table(args.workload, runs)))
    mismatches = [f"EXACT MISMATCH seed {pair['seed']} {line}"
                  for pair in pairs + [held_out]
                  for line in pair["outcome"] + list(pair["counts"].values())]
    for line in mismatches:
        print(line)
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
