"""Call-traced perimeter: which functions of ``src/repro`` does a run reach?

    PYTHONPATH=src python3 scripts/perimeter.py OUT.json SCRIPT [ARG ...]
    PYTHONPATH=src python3 scripts/perimeter.py OUT.json -m MODULE [ARG ...]

Runs the script or module in this process under a ``sys.setprofile``
recorder (``ledger/tracer.py``'s technique, recording code objects, not
times), merges every ``src/repro`` function entered into OUT.json, and
prints what the union of the runs merged so far never called: function
lines outside ``lint/`` per package (first decorator through last line),
then each function. Child processes are not followed: drive
``ledger/worker.py``, not ``ledger/run.py``, and keep ``--jobs 1``.
``git show 64ca599:EXPERIMENTS.md`` (*Perimeter audit*) lists the
audit's commands; EXPERIMENTS.md keeps its decision-record row.
"""

import ast
import glob
import json
import os
import runpy
import sys

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
    """Print the never-called function lines per package, then each one."""
    totals, never = {}, []
    for path in sorted(glob.glob(SRC + "**/*.py", recursive=True)):
        rel = path[len(SRC):]
        package = rel.split(os.sep)[0] if os.sep in rel else "(top)"
        if package != "lint":
            with open(path) as fh:
                tree = ast.parse(fh.read())
            row = totals.setdefault(package, [0, 0])
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min(n.lineno for n in [node, *node.decorator_list])
                    lines = node.end_lineno - first + 1
                    row[1] += lines
                    if (rel, first) not in called:
                        row[0] += lines
                        never.append(f"  {rel}:{first} {node.name} ({lines})")
    totals["total"] = [sum(col) for col in zip(*totals.values())]
    for package, (dead, total) in totals.items():
        print(f"{package:10s} {dead:5d} / {total:5d}")
    print("\n".join(never))


if __name__ == "__main__":
    report(record(sys.argv[1], sys.argv[2], sys.argv[3:]))
