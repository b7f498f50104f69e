"""The tree polices itself: ``python -m repro lint src tests shapes
examples scripts`` — everything CI executes — is clean."""

import os
import subprocess
import sys
from pathlib import Path

from repro.lint import all_rules, lint_paths
from repro.lint.runner import main

ROOT = Path(__file__).resolve().parents[2]
#: what the CI lint step names (ledger/ stays out: its two
#: ``time.monotonic`` reads are the measurement itself).
LINTED = ("src", "tests", "shapes", "examples", "scripts")


def test_src_and_tests_are_clean():
    result = lint_paths([str(ROOT / name) for name in LINTED])
    assert not result.findings, "\n".join(
        f.render() for f in result.findings)
    assert result.waived_count == 0     # and nothing had to be excused


def test_runner_main_exits_zero_on_src():
    assert main([str(ROOT / "src")]) == 0


def test_cli_subcommand_end_to_end():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + \
        env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", *LINTED],
        cwd=str(ROOT), env=env, capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_rule_catalogue_is_complete():
    rules = all_rules()
    # The catalogue DESIGN.md §9 promises: every rule that has a live
    # mutant (tests/lint/test_mutants.py), and no other.
    assert [r.id for r in rules] == [
        "DET001", "DET002", "DET003", "DET004", "DET005", "DET007",
        "SIM001", "SIM002", "SIM003", "SIM004"]
    for rule in rules:
        assert rule.title and rule.rationale and rule.scopes


def test_rules_demonstrably_fire_on_seeded_hazards():
    """Each historical in-tree hazard (now fixed) still trips its rule."""
    from repro.lint import lint_source

    timeline_79 = ("tv = 0.5 * sum(abs(observed.get(k, 0.0)) "
                   "for k in set(observed) | set(fair_shares))\n")
    assert any(f.rule == "DET004" for f in lint_source(timeline_79))

    bench_rng = ("import numpy as np\n"
                 "us = np.random.default_rng(0).random(5000).tolist()\n")
    assert any(f.rule == "DET002" for f in lint_source(bench_rng))
