"""Shared AST helpers for lint rules."""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Union

__all__ = [
    "FuncDef", "dotted_name", "iter_functions", "is_generator",
    "SetExprTracker", "statements_in_order",
]

FuncDef = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def iter_functions(tree: ast.Module) -> Iterator[FuncDef]:
    """Every function/async-function definition, outermost first."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def is_generator(func: ast.AST) -> bool:
    """True if *func* contains a yield that belongs to it (not nested)."""
    for node in _walk_own(func):
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
    return False


def _walk_own(func: ast.AST) -> Iterator[ast.AST]:
    """Walk *func*'s body without descending into nested functions."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(func))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


class SetExprTracker:
    """Per-function tracking of names bound to set-valued expressions.

    Resolves the two-step hazard ``keys = set(a) | set(b); for k in
    keys`` without full dataflow: a simple assignment of a set-producing
    expression taints the target name; any other assignment clears it.
    """

    _SET_CALLS = {"set", "frozenset"}

    def __init__(self) -> None:
        self._tainted: Dict[str, ast.AST] = {}

    def is_set_expr(self, node: ast.AST) -> bool:
        """Whether *node* evaluates to a set (literal, call, op, or taint)."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            return name in self._SET_CALLS
        if isinstance(node, ast.BinOp) and isinstance(
                node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
            return self.is_set_expr(node.left) or self.is_set_expr(node.right)
        if isinstance(node, ast.Name):
            return node.id in self._tainted
        return False

    def observe(self, stmt: ast.stmt) -> None:
        """Update taint from one assignment statement."""
        if isinstance(stmt, ast.Assign):
            tainted = self.is_set_expr(stmt.value)
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    if tainted:
                        self._tainted[target.id] = stmt.value
                    else:
                        self._tainted.pop(target.id, None)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            target = stmt.target
            if isinstance(target, ast.Name):
                value = getattr(stmt, "value", None)
                if value is not None and self.is_set_expr(value):
                    self._tainted[target.id] = value
                else:
                    self._tainted.pop(target.id, None)


def statements_in_order(func: ast.AST) -> List[ast.stmt]:
    """All statements of *func* (excluding nested functions), source order."""
    out: List[ast.stmt] = []
    for node in _walk_own(func):
        if isinstance(node, ast.stmt):
            out.append(node)
    out.sort(key=lambda s: (s.lineno, s.col_offset))
    return out
