#!/usr/bin/env python
"""Gate "same bytes out": every figure's printed table, exactly.

Runs ``python -m repro figure NAME --scale 0.05 --seed 3`` for every
name ``python -m repro figures`` lists and compares a blake2b of each
stdout with the committed ``FIGURE_OUTPUTS.json``. The tables are
simulated results, so they have no noise: any difference is a behaviour
change. This is the check tier-1 and the ledger gate cannot make — no
ledger workload reaches ``fs/erasure.py`` or ``bb/repair.py``, and a
change to the degraded-write path once moved ``figure repair`` with
both of those green. ``repair`` and ``outage`` are the two figures that
run with client timeouts on. A change that means to move a figure
re-records the file with ``--update`` and says why in its description.

Usage::

    python scripts/figure_outputs.py            # exit 1 on any mismatch
    python scripts/figure_outputs.py --jobs 2   # two figures at a time
    python scripts/figure_outputs.py --update   # rewrite FIGURE_OUTPUTS.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_COMMITTED = os.path.join(_ROOT, "FIGURE_OUTPUTS.json")

#: the flags every figure is recorded at (≈ 5.5 min serial for all 14).
FLAGS = ("--scale", "0.05", "--seed", "3")


def _repro(*argv: str) -> bytes:
    """stdout of ``python -m repro ARGV`` run against this tree's src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(_ROOT, "src")
    return subprocess.run([sys.executable, "-m", "repro", *argv], env=env,
                          cwd=_ROOT, check=True,
                          stdout=subprocess.PIPE).stdout


def figure_names() -> list:
    return _repro("figures").decode().split()


def digest(name: str) -> str:
    """blake2b of figure *name*'s table at :data:`FLAGS`."""
    return hashlib.blake2b(_repro("figure", name, *FLAGS),
                           digest_size=16).hexdigest()


def measure(jobs: int = 1) -> dict:
    """``{figure: digest}`` for every figure, *jobs* at a time."""
    names = figure_names()
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return dict(zip(names, pool.map(digest, names)))


def mismatches(committed: dict, measured: dict) -> list:
    """One line per figure whose digest differs or that one side lacks."""
    return [f"{name}: committed {committed.get(name)!r}, measured "
            f"{measured.get(name)!r}"
            for name in sorted(set(committed) | set(measured))
            if committed.get(name) != measured.get(name)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--update", action="store_true",
                        help="rewrite FIGURE_OUTPUTS.json from this run")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="figures run at a time (default 1)")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    measured = measure(args.jobs)
    if args.update:
        with open(_COMMITTED, "w") as fh:
            json.dump(measured, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {_COMMITTED}")
        return 0
    with open(_COMMITTED) as fh:
        committed = json.load(fh)
    wrong = mismatches(committed, measured)
    for line in wrong:
        print("FIGURE MISMATCH", line)
    print(f"{len(committed)} figures at {' '.join(FLAGS)}: "
          f"{len(wrong)} mismatches")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
