"""File discovery, rule execution, reporting, and the CLI.

``python -m repro lint [paths]`` parses the given files / directories,
collects the one cross-file fact a rule needs (the names of the
set-returning functions, for DET007), runs every rule on every file and
subtracts the inline waivers. The run exits non-zero iff a finding
remains; a waiver with its reason is the only way to excuse one.
"""

from __future__ import annotations

import argparse
import ast
import os
from dataclasses import dataclass, field
from typing import FrozenSet, List, Optional, Sequence, Tuple, Union

from .core import Finding, Module, Rule, Severity, all_rules
from .rules.det import set_returning_names
from .waivers import collect_waivers, stale_waiver_findings

__all__ = ["LintResult", "lint_paths", "lint_source", "main"]

_SKIP_DIRS = {"__pycache__", ".git", ".venv", "node_modules", ".mypy_cache",
              ".ruff_cache", "fixtures"}


def _discover(paths: Sequence[str]) -> List[str]:
    """All .py files under *paths* (files kept as-is), sorted.

    Directories named ``fixtures`` are skipped during the walk: they
    hold deliberately-broken lint test beds. Passing a fixture
    directory *explicitly* still works — only the descent skips them.
    """
    found: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            found.append(path)
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames
                                 if d not in _SKIP_DIRS
                                 and not d.startswith("."))
            for name in sorted(filenames):
                if name.endswith(".py"):
                    found.append(os.path.join(dirpath, name))
    return sorted(dict.fromkeys(os.path.normpath(p) for p in found))


def path_scope(path: str) -> str:
    """"tests" for test files, else "src" (rules see every non-test file)."""
    norm = path.replace("\\", "/")
    parts = norm.split("/")
    if "tests" in parts or os.path.basename(norm).startswith("test_"):
        return "tests"
    return "src"


@dataclass
class LintResult:
    """Everything one run produced."""

    findings: List[Finding] = field(default_factory=list)
    files: int = 0
    waived_count: int = 0

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0


def _parse_module(path: str, source: str) -> Union[Module, Finding]:
    """The parsed module, or the LINT000 finding for its syntax error."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return Finding(
            rule="LINT000", severity=Severity.ERROR, path=path,
            line=exc.lineno or 1, col=exc.offset or 0,
            message=f"syntax error: {exc.msg}")
    return Module(path=path, source=source, tree=tree,
                  scope=path_scope(path))


def _selected(select: Optional[Sequence[str]]) -> List[Rule]:
    rules = all_rules()
    if select:
        wanted = set(select)
        rules = [r for r in rules if r.id in wanted]
    return rules


def _check(module: Module, rules: Sequence[Rule],
           full: bool) -> Tuple[List[Finding], int]:
    """What *rules* find in *module* after its waivers, plus the waiver
    meta-findings (LINT001; LINT002 only on a *full* run — a selection
    cannot tell a stale waiver from one for a rule that did not run),
    and how many findings the waivers suppressed."""
    waivers, findings = collect_waivers(module)
    raw = [f for rule in rules if rule.applies_to(module)
           for f in rule.check(module)]
    kept = [f for f in raw if not waivers.suppresses(f)]
    findings.extend(kept)
    if full:
        findings.extend(stale_waiver_findings(module, waivers))
    return findings, len(raw) - len(kept)


def _in_order(findings: List[Finding]) -> List[Finding]:
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))


def lint_paths(paths: Sequence[str],
               select: Optional[Sequence[str]] = None) -> LintResult:
    """Lint every file under *paths* against the registered rules."""
    rules = _selected(select)
    result = LintResult()
    modules: List[Module] = []
    for path in _discover(paths):
        rel = os.path.relpath(path).replace("\\", "/")
        try:
            with open(path, "r", encoding="utf-8") as fh:
                source = fh.read()
        except OSError as exc:
            result.findings.append(Finding(
                rule="LINT000", severity=Severity.ERROR, path=rel,
                line=1, col=0, message=f"cannot read file: {exc}"))
            continue
        parsed = _parse_module(rel, source)
        if isinstance(parsed, Finding):
            result.findings.append(parsed)
        else:
            modules.append(parsed)
    names = set_returning_names(m.tree for m in modules if m.scope == "src")
    for module in modules:
        module.set_returning = names
        findings, waived = _check(module, rules, full=not select)
        result.findings.extend(findings)
        result.waived_count += waived
    result.files = len(modules)
    result.findings = _in_order(result.findings)
    return result


def lint_source(source: str, path: str = "src/repro/snippet.py",
                select: Optional[Sequence[str]] = None,
                set_returning: Optional[FrozenSet[str]] = None
                ) -> List[Finding]:
    """Lint one in-memory snippet (the unit-test entry point).

    *path* controls rule scoping ("src" vs "tests") and exemptions.
    *set_returning* is the project's name table for DET007; by default
    it is collected from the snippet alone.
    """
    module = _parse_module(path, source)
    if isinstance(module, Finding):
        return [module]
    if set_returning is None:
        set_returning = set_returning_names([module.tree])
    module.set_returning = set_returning
    findings, _waived = _check(module, _selected(select), full=not select)
    return _in_order(findings)


def _print_catalogue() -> None:
    for rule in all_rules():
        scopes = ",".join(rule.scopes)
        print(f"{rule.id}  [{rule.severity.value:7s}] ({scopes}) "
              f"{rule.title}")
        print(f"        {rule.rationale}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point for ``python -m repro lint``; returns exit code."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description="AST determinism & sim-safety analyzer "
                    "(same seed => same trace, enforced statically).")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--select", default=None,
                        help="comma-separated rule ids to run")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        _print_catalogue()
        return 0

    select = [s.strip() for s in args.select.split(",")] if args.select \
        else None
    result = lint_paths(args.paths, select=select)
    for finding in result.findings:
        print(finding.render())
    errors = sum(1 for f in result.findings if f.severity is Severity.ERROR)
    print(f"{result.files} files: {errors} errors, "
          f"{len(result.findings) - errors} warnings "
          f"({result.waived_count} waived)")
    return result.exit_code
