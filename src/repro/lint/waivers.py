"""Inline waivers: ``# lint: disable=RULE[,RULE...] -- reason``.

A waiver on a code line suppresses matching findings *on that line*; a
waiver comment standing alone on its own line covers the next line
(for statements too long to carry a trailing comment). The ``--
reason`` clause is mandatory: a waiver without a justification is
itself a finding (LINT001), and a waiver that suppresses nothing is
reported as stale (LINT002) so dead waivers cannot accumulate.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Tuple

from .core import Finding, Module, Severity

__all__ = ["Waiver", "WaiverSet", "collect_waivers"]

_WAIVER_RE = re.compile(r"#\s*lint:\s*disable=([A-Za-z0-9_,\- ]+?)"
                        r"(?:\s*--\s*(.*))?\s*$")
_STANDALONE_RE = re.compile(r"^\s*#")


@dataclass
class Waiver:
    """One parsed waiver comment."""

    rules: Tuple[str, ...]
    reason: str
    comment_line: int      # where the comment sits
    target_line: int       # the line whose findings it suppresses
    used: bool = False


@dataclass
class WaiverSet:
    """All waivers of one module, indexed by (rule, target line)."""

    waivers: List[Waiver] = field(default_factory=list)
    _index: Dict[Tuple[str, int], Waiver] = field(default_factory=dict)

    def add(self, waiver: Waiver) -> None:
        """Register *waiver* for lookup by (rule, target line)."""
        self.waivers.append(waiver)
        for rule in waiver.rules:
            self._index.setdefault((rule, waiver.target_line), waiver)

    def suppresses(self, finding: Finding) -> bool:
        """True (and marks the waiver used) if *finding* is waived."""
        waiver = self._index.get((finding.rule, finding.line))
        if waiver is None:
            return False
        waiver.used = True
        return True

    def stale(self) -> List[Waiver]:
        """Waivers that suppressed no finding in this run."""
        return [w for w in self.waivers if not w.used]


def collect_waivers(module: Module) -> Tuple[WaiverSet, List[Finding]]:
    """Parse every waiver comment in *module*.

    Returns the waiver set plus meta-findings: LINT001 for a waiver
    missing its ``-- reason`` clause (the waiver is ignored, so the
    underlying finding still fires).
    """
    waivers = WaiverSet()
    problems: List[Finding] = []
    for lineno, text, standalone in _comment_lines(module):
        match = _WAIVER_RE.search(text)
        if match is None:
            continue
        rules = tuple(r.strip() for r in match.group(1).split(",")
                      if r.strip())
        reason = (match.group(2) or "").strip()
        if not reason:
            problems.append(Finding(
                rule="LINT001", severity=Severity.ERROR,
                path=module.path, line=lineno, col=0,
                message="waiver missing '-- reason' justification; "
                        "waiver ignored"))
            continue
        target = lineno + 1 if standalone else lineno
        waivers.add(Waiver(rules=rules, reason=reason,
                           comment_line=lineno, target_line=target))
    return waivers, problems


def _comment_lines(module: Module) -> Iterator[Tuple[int, str, bool]]:
    """(lineno, comment text, standalone?) for each real comment token.

    Tokenizing (rather than scanning raw lines) keeps waiver-shaped
    text inside string literals from being parsed as a waiver.
    """
    try:
        tokens = list(tokenize.generate_tokens(
            io.StringIO(module.source).readline))
    except (tokenize.TokenError, IndentationError):
        return
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        line = tok.line.rstrip("\n")
        standalone = _STANDALONE_RE.match(line) is not None
        yield tok.start[0], tok.string, standalone


def stale_waiver_findings(module: Module,
                          waivers: WaiverSet) -> List[Finding]:
    """LINT002 for each waiver that suppressed nothing."""
    out: List[Finding] = []
    for waiver in waivers.stale():
        out.append(Finding(
            rule="LINT002", severity=Severity.WARNING,
            path=module.path, line=waiver.comment_line, col=0,
            message=f"stale waiver for {', '.join(waiver.rules)}: "
                    "no finding on its target line"))
    return out
