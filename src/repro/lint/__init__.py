"""``repro.lint`` — static determinism & sim-safety analysis.

Enforces the repo's trace-equality contract (*same seed =>
bit-identical event trace*) at review time instead of three PRs later:

- **DET rules** catch second seeding roots (raw ``random``, ad-hoc
  ``default_rng``), wall-clock reads, unordered-set iteration, and
  ``id()``-based ordering.
- **SIM rules** catch host-blocking calls in DES processes, stale
  write-backs across a ``yield`` (lost updates), and mutable defaults.

Run ``python -m repro lint [paths]``; see DESIGN.md §9 for the rule
catalogue and the waiver/baseline policy.
"""

from .baseline import Baseline, BaselineError
from .core import (Finding, Module, Rule, Severity, all_rules, register,
                   rule_by_id)
from .runner import LintResult, lint_paths, lint_source, main
from .waivers import Waiver, WaiverSet, collect_waivers

__all__ = [
    "Baseline", "BaselineError", "Finding", "LintResult", "Module", "Rule",
    "Severity", "Waiver", "WaiverSet", "all_rules", "collect_waivers",
    "lint_paths", "lint_source", "main", "register", "rule_by_id",
]
