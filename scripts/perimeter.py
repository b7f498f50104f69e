"""Call-traced perimeter: which functions of ``src/repro`` does a run reach?

    python3 scripts/perimeter.py --check [--jobs N]
    PYTHONPATH=src python3 scripts/perimeter.py OUT.json SCRIPT [ARG ...]
    PYTHONPATH=src python3 scripts/perimeter.py OUT.json -m MODULE [ARG ...]

``--check`` is the audit, and CI's ``perimeter`` job runs it. It runs
every command of :data:`ROOTS` in a record-mode subprocess of its own,
N at a time (default 1), with ``REPRO_CODE_REV=audit`` and a temporary
workspace; unions what they called; and exits 1 if a function outside
``lint/`` goes uncalled and is not on ``PERIMETER_KEEP.json``, if a
keep-list entry is called or names no function, if an entry's reason is
not one of :data:`REASONS`, or if a root command fails. It takes about
13 min on a 2-core host with ``--jobs 2`` (the recorder costs about 2x).

Record mode runs one script or module in this process under a
``sys.setprofile`` recorder (``ledger/tracer.py``'s technique, recording
code objects, not times), merges every ``src/repro`` function entered
into OUT.json and prints what the union of the runs merged so far never
called: function lines outside ``lint/`` per package (first decorator
through last line, each line counted once, for the innermost function
around it), then each function. Child processes are not followed:
drive ``ledger/worker.py``, not ``ledger/run.py``, and keep ``--jobs 1``.

The audit's roots are the paper and what gates it: every figure of the
figure table, the CLI, the five ledger workloads, every shape (each
asserts a §5 claim or a DESIGN.md ablation) and every fault scenario.
An example is not a root: it may use only code a root keeps.

``PERIMETER_KEEP.json`` maps ``path::Qualified.name`` (the path under
``src/repro``; classes and enclosing functions joined by dots) to the
reason a root-uncalled function stays. Keys name functions, not lines,
so an edit elsewhere in the file does not break the list.
EXPERIMENTS.md keeps the audit's decision-record rows.
"""

import argparse
import ast
import glob
import json
import os
import re
import runpy
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "repro") + os.sep
KEEP = os.path.join(ROOT, "PERIMETER_KEEP.json")

#: The audit's root commands, slowest first. Each entry is one step:
#: its commands run in order, in one worker, each under its own
#: recorder. ``{figure}`` expands to one step per name ``repro figures``
#: prints; ``{ws}`` is the check's temporary workspace.
_FIGURE = ("-m", "repro", "figure", "{figure}", "--scale", "0.05",
           "--seed", "3")
ROOTS = (
    (("-m", "pytest", "shapes", "-q", "-p", "no:cacheprovider"),),
    (_FIGURE,),
    (("-m", "pytest", "tests/faults", "-q", "-p", "no:cacheprovider"),),
    *((("ledger/worker.py", "--workload", workload, "--seed", "11",
        "--spawned", "0", "--smoke"),)
      for workload in ("fig07_write", "fig07_read", "job_churn",
                       "sync_scale", "outage")),
    (("-m", "repro", "figure", "fig08a", "--scale", "0.05",
      "--workspace", "{ws}"),) * 2,                   # cold, then warm
    (("-m", "repro", "sharing", "--policy", "size-fair",
      "--jobs", "4:alice,1:bob"),),
    (("-m", "repro", "figures"),),
    (("-m", "repro", "policies"),),
    (("-m", "repro", "lint", "src"),),
)

#: Why a function no root calls may stay; ``item N`` names the ROADMAP
#: item that is to remove or call it.
REASONS = ("observation point", "abstract default", "test hook",
           "safety path", "debugging aid")
_ITEM = re.compile(r"item \d+")


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


def functions() -> list:
    """``(rel, first, key, lines)`` of every function outside ``lint/``,
    by file, then first line; *key* is ``rel::Qualified.name`` and
    *lines* the lines it owns. A line is owned by the innermost function
    around it: a nested def's lines are its own, not its parent's too.
    """
    found = []
    for path in sorted(glob.glob(SRC + "**/*.py", recursive=True)):
        rel = path[len(SRC):]
        if rel.split(os.sep)[0] == "lint":
            continue
        with open(path) as fh:
            tree = ast.parse(fh.read())
        owner = {}  # line -> (first line, qualified name)
        stack = [(tree, "")]
        while stack:  # outside-in, so an inner def overwrites its lines
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                name = prefix
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef)):
                    name = prefix + child.name
                    if not isinstance(child, ast.ClassDef):
                        first = min(n.lineno for n in
                                    [child, *child.decorator_list])
                        for line in range(first, child.end_lineno + 1):
                            owner[line] = (first, name)
                    name += "."
                stack.append((child, name))
        for (first, name), lines in sorted(Counter(owner.values()).items()):
            found.append((rel, first, f"{rel}::{name}", lines))
    return found


def report(called: set) -> dict:
    """Print the never-called function lines per package, then each one;
    returns the never-called functions as ``{key: lines}``."""
    totals, never, rows = {}, {}, []
    for rel, first, key, lines in functions():
        package = rel.split(os.sep)[0] if os.sep in rel else "(top)"
        row = totals.setdefault(package, [0, 0])
        row[1] += lines
        if (rel, first) not in called:
            row[0] += lines
            never[key] = never.get(key, 0) + lines
            rows.append(f"  {rel}:{first} {key.partition('::')[2].rpartition('.')[2]} ({lines})")
    totals["total"] = [sum(col) for col in zip(*totals.values())]
    for package, (dead, total) in totals.items():
        print(f"{package:10s} {dead:5d} / {total:5d}")
    print("\n".join(rows))
    return never


def problems(never: dict, keep: dict) -> list:
    """What fails the check: each never-called function (*never*, from
    :func:`report`) not on *keep*, each *keep* entry that is called or
    names no function, and each entry whose reason is not one of
    :data:`REASONS` or ``item N``."""
    keys = {key for _, _, key, _ in functions()}
    out = [f"never called, not on the keep-list: {key}"
           for key in sorted(never.keys() - keep.keys())]
    for key, reason in sorted(keep.items()):
        if key not in keys:
            out.append(f"on the keep-list, names no function: {key}")
        elif key not in never:
            out.append(f"on the keep-list, but called: {key}")
        if reason not in REASONS and not _ITEM.fullmatch(reason):
            out.append(f"on the keep-list, unknown reason {reason!r}: {key}")
    return out


def _steps(figures: list, ws: str) -> list:
    """:data:`ROOTS` with ``{figure}`` and ``{ws}`` filled in."""
    steps = []
    for step in ROOTS:
        names = figures if any("{figure}" in cmd for cmd in step) else [None]
        for name in names:
            steps.append(tuple(tuple(arg.replace("{figure}", name or "")
                                     .replace("{ws}", ws) for arg in cmd)
                               for cmd in step))
    return steps


def check(jobs: int) -> int:
    """Run every root under the recorder and judge the union against
    the keep-list; returns the exit status."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               REPRO_CODE_REV="audit")
    with open(KEEP) as fh:
        keep = json.load(fh)
    with tempfile.TemporaryDirectory(prefix="perimeter-") as tmp:
        figures = []
        if any("{figure}" in cmd for step in ROOTS for cmd in step):
            figures = subprocess.run(
                [sys.executable, "-m", "repro", "figures"], cwd=ROOT, env=env,
                check=True, capture_output=True, text=True).stdout.split()
        steps = _steps(figures, os.path.join(tmp, "ws"))

        def run(index: int) -> str:
            """Run one step; returns its failure, or '' if it passed."""
            out = os.path.join(tmp, f"called-{index}.json")
            log = os.path.join(tmp, f"log-{index}.txt")
            for cmd in steps[index]:
                with open(log, "a") as fh:
                    done = subprocess.run(
                        [sys.executable, os.path.abspath(__file__), out, *cmd],
                        cwd=ROOT, env=env, stdout=fh, stderr=subprocess.STDOUT)
                line = " ".join(cmd)
                print(f"exit {done.returncode}: {line}",
                      file=sys.stderr, flush=True)
                if done.returncode:
                    with open(log) as fh:
                        tail = fh.read()[-2000:]
                    return f"root failed: {line}\n{tail}"
            return ""

        with ThreadPoolExecutor(max_workers=jobs) as pool:
            failed = [msg for msg in pool.map(run, range(len(steps))) if msg]
        called = set()
        for out in glob.glob(os.path.join(tmp, "called-*.json")):
            with open(out) as fh:
                called |= {tuple(entry) for entry in json.load(fh)}
    never = report(called)
    kept = sum(lines for key, lines in never.items() if key in keep)
    outside = sum(lines for key, lines in never.items() if key not in keep)
    print(f"never called: {sum(never.values())} lines in {len(never)} "
          f"functions; {kept} on the keep-list ({len(keep)} entries), "
          f"{outside} outside it")
    failed += problems(never, keep)
    print("\n".join(failed) if failed else "perimeter: ok")
    return 1 if failed else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--check"]:
        parser = argparse.ArgumentParser(prog="perimeter.py --check")
        parser.add_argument("--jobs", type=int, default=1,
                            help="root commands run at a time")
        sys.exit(check(parser.parse_args(sys.argv[2:]).jobs))
    report(record(sys.argv[1], sys.argv[2], sys.argv[3:]))
