"""Whole-program rules against the fixture packages.

Each fixture package under ``tests/lint/fixtures/`` seeds one hazard
family (or one documented non-finding). These tests prove every
PROTO/DET-interprocedural rule fires where promised and stays
silent where promised — the acceptance bar for trusting a clean sweep
of the real tree.
"""

import ast
from pathlib import Path

from repro.lint.core import Module, ProjectRule, all_rules, rule_by_id
from repro.lint.graph import ProjectIndex, summarize_module

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def fixture_index(package):
    """A ProjectIndex over every module of one fixture package."""
    summaries = []
    for path in sorted((FIXTURES / package).glob("*.py")):
        source = path.read_text(encoding="utf-8")
        module = Module(path=str(path), source=source,
                        tree=ast.parse(source), scope="src")
        summaries.append(summarize_module(module))
    assert summaries, f"no fixture modules in {package}"
    return ProjectIndex(summaries)


def run_rule(rule_id, index):
    cls = rule_by_id(rule_id)
    assert cls is not None
    return list(cls().check_project(index))


def all_project_findings(index):
    out = []
    for rule in all_rules():
        if isinstance(rule, ProjectRule):
            out.extend(rule.check_project(index))
    return out


# ---------------------------------------------------------------- PROTO
def test_proto101_flags_sent_but_unhandled_kind():
    findings = run_rule("PROTO101", fixture_index("protosim"))
    assert len(findings) == 1, [f.render() for f in findings]
    f = findings[0]
    assert "'zap'" in f.message
    assert f.path.endswith("sender.py")


def test_proto102_flags_dead_handler_branch():
    findings = run_rule("PROTO102", fixture_index("protosim"))
    assert len(findings) == 1, [f.render() for f in findings]
    f = findings[0]
    assert "'stale'" in f.message
    assert f.path.endswith("handler.py")


def test_proto103_flags_missing_payload_key():
    findings = run_rule("PROTO103", fixture_index("protosim"))
    assert len(findings) == 1, [f.render() for f in findings]
    f = findings[0]
    assert "'have'" in f.message
    assert "'host'" not in f.message
    assert f.path.endswith("handler.py")


def test_dynamic_dispatch_is_a_documented_non_finding():
    findings = all_project_findings(fixture_index("protodyn"))
    assert not findings, [f.render() for f in findings]


# ------------------------------------------------------------------ DET
def test_det006_flags_rng_laundered_through_two_hops():
    findings = run_rule("DET006", fixture_index("rnglaund"))
    assert len(findings) == 1, [f.render() for f in findings]
    f = findings[0]
    assert f.path.endswith("middle.py")
    assert "stream_for" in f.message and "fresh_rng" in f.message


def test_det007_flags_bare_iteration_of_imported_set_helper():
    findings = run_rule("DET007", fixture_index("setesc"))
    assert len(findings) == 1, [f.render() for f in findings]
    f = findings[0]
    assert f.path.endswith("consumer.py")
    assert "changed_keys" in f.message


def test_det007_sorted_wrapper_stays_silent():
    findings = run_rule("DET007", fixture_index("setesc"))
    source = (FIXTURES / "setesc" / "consumer.py").read_text()
    sorted_line = next(i for i, line in
                       enumerate(source.splitlines(), 1)
                       if "sorted(" in line)
    assert all(f.line != sorted_line for f in findings)


# ------------------------------------------------- real-tree anchoring
def test_real_tree_protocol_surface_is_modelled():
    """Guard against vacuous cleanliness: the index must actually see
    the λ-sync vocabulary of the real tree."""
    import os

    from repro.lint.runner import _discover, _parse_module

    root = Path(__file__).resolve().parents[2]
    summaries = []
    for path in _discover([str(root / "src")]):
        rel = os.path.relpath(path, root).replace("\\", "/")
        module, err = _parse_module(rel, open(path).read())
        if err is None:
            summaries.append(summarize_module(module))
    index = ProjectIndex(summaries)

    sent_kinds = set()
    for _fn, _site, kinds, _keys in index.resolved_sends():
        sent_kinds.update(kinds)
    assert {"pull", "push",
            "register", "heartbeat", "goodbye"} <= sent_kinds

    handled = {br.kind for _fn, br in index.dispatchers()
               if br.kind is not None}
    assert {"pull", "push",
            "register", "heartbeat", "goodbye"} <= handled
