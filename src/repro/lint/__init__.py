"""``repro.lint`` — static determinism & sim-safety analysis.

Enforces the repo's trace-equality contract (*same seed =>
bit-identical event trace*) at review time instead of three PRs later:

- **DET rules** catch second seeding roots (raw ``random``, ad-hoc
  ``default_rng``), wall-clock reads, unordered-set iteration, and
  ``id()``-based ordering.
- **SIM rules** catch host-blocking calls in DES processes, stale
  write-backs across a ``yield`` (lost updates), mutable defaults, and
  forked workers.

Run ``python -m repro lint [paths]``; see DESIGN.md §9 for the rule
catalogue, the bar a rule must clear to stay, and the waiver policy.
"""

from .core import Finding, Module, Rule, Severity, all_rules, register
from .runner import LintResult, lint_paths, lint_source, main
from .waivers import Waiver, WaiverSet, collect_waivers

__all__ = [
    "Finding", "LintResult", "Module", "Rule", "Severity", "Waiver",
    "WaiverSet", "all_rules", "collect_waivers", "lint_paths",
    "lint_source", "main", "register",
]
