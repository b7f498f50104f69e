"""Call-traced perimeter: which functions of ``src/repro`` does a run reach?

    PYTHONPATH=src python3 scripts/perimeter.py OUT.json SCRIPT [ARG ...]
    PYTHONPATH=src python3 scripts/perimeter.py OUT.json -m MODULE [ARG ...]

Runs the script or module in this process under a ``sys.setprofile``
recorder (``ledger/tracer.py``'s technique, recording code objects, not
times), merges every ``src/repro`` function entered into OUT.json, and
prints what the union of the runs merged so far never called: function
lines outside ``lint/`` per package (first decorator through last line,
each line counted once, for the innermost function around it), then
each function. Child processes are not followed: drive
``ledger/worker.py``, not ``ledger/run.py``, and keep ``--jobs 1``.

The audit's roots are the paper and what gates it: every figure of the
figure table, the CLI, the five ledger workloads, every shape (each
asserts a §5 claim or a DESIGN.md ablation) and every fault scenario.
An example is not a root: it may use only code a root keeps. The audit
is these commands, each prefixed with ``PYTHONPATH=src
REPRO_CODE_REV=audit python3 scripts/perimeter.py audit.json`` (about
17 min on a 2-core host with the commands split over two processes,
each into its own OUT file, whose JSON lists are then unioned; the
recorder costs about 2x)::

    for w in fig07_write fig07_read job_churn sync_scale outage; do
      ... ledger/worker.py --workload $w --seed 11 --spawned 0 --smoke; done
    ... -m pytest shapes -q -p no:cacheprovider
    ... -m pytest tests/faults -q -p no:cacheprovider
    ... -m repro figures;  ... -m repro policies;  ... -m repro lint src
    for f in $(PYTHONPATH=src python3 -m repro figures); do
      ... -m repro figure $f --scale 0.05 --seed 3; done      # all 14
    ... -m repro figure fig08a --scale 0.05 --workspace ws    # cold, then
    ... -m repro figure fig08a --scale 0.05 --workspace ws    # warm
    ... -m repro sharing --policy size-fair --jobs 4:alice,1:bob

Never-called function lines outside ``lint/``, the re-audit baseline,
measured with these commands once the ``posix`` and ``mpiio`` packages
and the code only they reached were deleted: 521 / 7,109.
EXPERIMENTS.md keeps the audit's decision-record rows.
"""

import ast
import glob
import json
import os
import runpy
import sys
from collections import Counter

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "repro") + os.sep


def record(out: str, target: str, args: list) -> set:
    """Run the target under the recorder; returns the merged called set."""
    called = set()
    if os.path.exists(out):
        with open(out) as fh:
            called = {tuple(entry) for entry in json.load(fh)}
    seen = {}  # code object -> None, in first-call order
    sys.setprofile(lambda frame, event, arg:
                   seen.setdefault(frame.f_code) if event == "call" else None)
    try:
        if target == "-m":
            sys.argv = args
            runpy.run_module(args[0], run_name="__main__", alter_sys=True)
        else:
            sys.argv = [target, *args]
            runpy.run_path(target, run_name="__main__")
    except SystemExit as exc:
        if exc.code not in (0, None):
            raise
    finally:
        sys.setprofile(None)
    called |= {(code.co_filename[len(SRC):], code.co_firstlineno)
               for code in seen if code.co_filename.startswith(SRC)}
    with open(out, "w") as fh:
        json.dump(sorted(called), fh)
    return called


def report(called: set) -> None:
    """Print the never-called function lines per package, then each one.

    A line counts once, for the innermost function around it: a nested
    def's lines are its own, not its parent's too.
    """
    totals, never = {}, []
    for path in sorted(glob.glob(SRC + "**/*.py", recursive=True)):
        rel = path[len(SRC):]
        package = rel.split(os.sep)[0] if os.sep in rel else "(top)"
        if package != "lint":
            with open(path) as fh:
                tree = ast.parse(fh.read())
            row = totals.setdefault(package, [0, 0])
            owner = {}  # line -> innermost function; ast.walk is outside-in
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min(n.lineno for n in [node, *node.decorator_list])
                    for line in range(first, node.end_lineno + 1):
                        owner[line] = (first, node.name)
            for (first, name), lines in sorted(Counter(owner.values()).items()):
                row[1] += lines
                if (rel, first) not in called:
                    row[0] += lines
                    never.append(f"  {rel}:{first} {name} ({lines})")
    totals["total"] = [sum(col) for col in zip(*totals.values())]
    for package, (dead, total) in totals.items():
        print(f"{package:10s} {dead:5d} / {total:5d}")
    print("\n".join(never))


if __name__ == "__main__":
    report(record(sys.argv[1], sys.argv[2], sys.argv[3:]))
