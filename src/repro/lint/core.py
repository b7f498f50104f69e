"""Core types of the determinism / sim-safety analyzer.

The linter's contract mirrors the repo's: *same seed => bit-identical
event trace*. Rules are small AST visitors registered in a global
registry; the runner parses each file once into a :class:`Module` and
hands it to every applicable rule. Findings carry a per-rule severity,
and every finding fails the run:

``ERROR``
    A determinism or correctness hazard.
``WARNING``
    A strong heuristic (e.g. the yield-race detector) that may need a
    waiver when the code is actually safe.
"""

from __future__ import annotations

import ast
import enum
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Tuple, Type

__all__ = ["Severity", "Finding", "Module", "Rule", "register", "all_rules"]


class Severity(enum.Enum):
    """Per-rule severity; see the module docstring for semantics."""

    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    severity: Severity
    path: str
    line: int
    col: int
    message: str

    def render(self) -> str:
        """Human-readable one-line report (path:line:col: sev RULE: msg)."""
        return (f"{self.path}:{self.line}:{self.col}: "
                f"{self.severity.value} {self.rule}: {self.message}")


@dataclass
class Module:
    """One parsed source file plus everything rules need to inspect it.

    ``set_returning`` is the one cross-file fact any rule uses: the bare
    names of the project's set-returning functions (see
    :func:`repro.lint.rules.det.set_returning_names`), which DET007
    needs to see that ``for j in monitor.active_local_jobs()`` iterates
    a set.
    """

    path: str            # path as given on the command line (for output)
    source: str
    tree: ast.Module
    scope: str           # "src" | "tests", from the path
    set_returning: FrozenSet[str] = frozenset()


class Rule:
    """Base class for lint rules.

    Subclasses set the class attributes and implement :meth:`check`,
    yielding :class:`Finding` objects. ``scopes`` restricts where a rule
    applies ("src" sim/production code vs "tests"); ``exempt_suffixes``
    skips files whose path ends with one of the given suffixes (e.g. the
    RNG registry itself is allowed to construct numpy generators).
    """

    id: str = ""
    severity: Severity = Severity.ERROR
    title: str = ""
    rationale: str = ""
    scopes: Tuple[str, ...] = ("src",)
    exempt_suffixes: Tuple[str, ...] = ()

    def applies_to(self, module: Module) -> bool:
        """Whether this rule runs on *module* (scope + exemptions)."""
        if module.scope not in self.scopes:
            return False
        norm = module.path.replace("\\", "/")
        return not any(norm.endswith(sfx) for sfx in self.exempt_suffixes)

    def check(self, module: Module) -> Iterator[Finding]:
        """Yield every violation of this rule found in *module*."""
        raise NotImplementedError

    def finding(self, module: Module, node: ast.AST,
                message: str) -> Finding:
        """A finding of this rule anchored at *node*."""
        return Finding(rule=self.id, severity=self.severity,
                       path=module.path,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0),
                       message=message)


_REGISTRY: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.id}")
    _REGISTRY[cls.id] = cls
    return cls


def all_rules() -> List[Rule]:
    """Fresh instances of every registered rule, sorted by id."""
    from . import rules  # noqa: F401  (import populates the registry)
    return [_REGISTRY[rule_id]() for rule_id in sorted(_REGISTRY)]
