#!/usr/bin/env python
"""Mutation smoke test for the whole-program lint rules.

A clean sweep is only trustworthy if the rules demonstrably catch the
regressions they exist for. This script copies ``src/`` to a temp
directory, seeds one defect at a time, and asserts the lint run fails
with the expected rule:

* ``proto``: disable the ``pull`` branch of
  ``Controller.handle_sync`` (simulates deleting a λ-sync handler)
  -> PROTO101 on the pull send site.

Each mutation is a textual anchor replacement; if an anchor stops
matching after a refactor the script fails loudly rather than passing
vacuously. Exit 0 iff every mutant is caught.

Usage: ``PYTHONPATH=src python scripts/lint_mutation_smoke.py``
"""

import os
import shutil
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.lint.runner import lint_paths  # noqa: E402

CONTROLLER = os.path.join("repro", "bb", "controller.py")

MUTATIONS = [
    {
        "name": "delete λ-sync handler branch",
        "file": CONTROLLER,
        "anchor": 'if kind == "pull":',
        "replacement": 'if kind == "pull-disabled":',
        "expect_rule": "PROTO101",
        "expect_fragment": "'pull'",
    },
]


def run_mutant(mutation):
    workdir = tempfile.mkdtemp(prefix="lint-smoke-")
    try:
        mutated_src = os.path.join(workdir, "src")
        shutil.copytree(os.path.join(ROOT, "src"), mutated_src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        target = os.path.join(mutated_src, mutation["file"])
        with open(target, "r", encoding="utf-8") as fh:
            source = fh.read()
        if mutation["anchor"] not in source:
            print(f"FAIL [{mutation['name']}]: anchor not found in "
                  f"{mutation['file']} — update the smoke script to "
                  "match the refactored code")
            return False
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(source.replace(mutation["anchor"],
                                    mutation["replacement"], 1))
        result = lint_paths([mutated_src])
        hits = [f for f in result.new
                if f.rule == mutation["expect_rule"]
                and mutation["expect_fragment"] in f.message]
        if not hits:
            print(f"FAIL [{mutation['name']}]: expected a "
                  f"{mutation['expect_rule']} finding mentioning "
                  f"{mutation['expect_fragment']!r}; got:")
            for f in result.new:
                print("   ", f.render())
            return False
        print(f"ok   [{mutation['name']}]: caught by "
              f"{mutation['expect_rule']} ({hits[0].message[:72]}...)")
        return True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main():
    ok = all([run_mutant(m) for m in MUTATIONS])
    if ok:
        print("mutation smoke: all seeded defects caught")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
