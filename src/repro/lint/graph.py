"""Whole-program semantic model: symbol table, call graph, protocol map.

The per-file rules of :mod:`repro.lint.rules` see one AST at a time;
the failure modes that matter at cluster scale are *interprocedural* —
an RPC kind some sender emits that no handler matches, an RNG draw
laundered through a wrapper. This module extracts a compact, JSON-serialisable
:class:`FileSummary` from each source file (so the incremental cache
can persist it) and assembles the summaries into a
:class:`ProjectIndex`: name resolution for imports and ``self.``
methods, conservative call edges, reachability, and the catalogues the
PROTO/DET project rules consume.

Soundness stance (see DESIGN.md §14): resolution is *conservative for
silence* — a call that cannot be resolved (dynamic dispatch through an
arbitrary object whose method name is not project-unique) produces no
edge and therefore no finding, never a false positive. Payload-key
checks union keys across all send sites of a kind, so a key any sender
provides is never reported missing.
"""

from __future__ import annotations

import ast
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import (Any, Deque, Dict, Iterable, List, Optional, Set,
                    Tuple)

from .core import Module, dotted_name

__all__ = [
    "CallRef", "SendSite", "DispatchBranch", "FunctionSummary",
    "ClassSummary", "FileSummary", "ProjectIndex",
    "summarize_module", "module_dotted_name", "SCHEMA_VERSION",
]

#: Bump when the summary shape changes (invalidates the on-disk cache).
SCHEMA_VERSION = 4

#: Builtin container/str method names the unique-bare-name resolution
#: fallback must never match: ``some_dict.pop(...)`` would otherwise
#: resolve to the one project function that happens to be named
#: ``pop``, creating false call-graph edges.
#: Project-specific verbs (merge, observe, ...) stay resolvable.
_BUILTIN_METHOD_NAMES = frozenset({
    "append", "appendleft", "add", "insert", "extend", "remove",
    "discard", "pop", "popleft", "popitem", "clear", "update",
    "setdefault", "get", "keys", "values", "items", "copy", "count",
    "index", "sort", "reverse", "split", "join", "strip", "format",
    "encode", "decode",
})

#: The payload key carrying an RPC message's discriminator.
_KIND_KEY = "kind"


# --------------------------------------------------------------- summaries
@dataclass
class CallRef:
    """One call site, as seen from inside its enclosing function.

    ``expr`` is the dotted callee path (``"self._answer_pull"``,
    ``"controller.tree_order"``); a call whose base is itself a call or
    subscript keeps only the final attribute as ``"?.<attr>"`` so the
    by-unique-name fallback can still consider it.
    """

    expr: str
    line: int
    col: int
    pos_consts: List[Optional[str]] = field(default_factory=list)
    kw_consts: Dict[str, str] = field(default_factory=dict)
    #: True when the call is the iterated expression of a for-loop or
    #: comprehension (without a ``sorted(...)`` wrapper in between).
    in_iter: bool = False


@dataclass
class SendSite:
    """One RPC send: ``<client>.call(op, body, ...)``.

    ``kind`` is the body's constant ``kind`` value; ``kind_param`` names
    the enclosing-function parameter the kind flows from (resolved
    project-wide from caller constants + the default); both ``None``
    means the body carries no ``kind`` key (a *kindless* send, matched
    against a dispatcher's ``else`` branch). ``keys`` is the union of
    payload keys the body can carry; ``body_call`` names the callee the
    body was returned from, for one-hop flattening through helpers like
    ``_encode_push``.
    """

    op: str
    line: int
    col: int
    kind: Optional[str] = None
    kind_param: Optional[str] = None
    kind_dynamic: bool = False
    keys: List[str] = field(default_factory=list)
    body_call: Optional[str] = None
    body_known: bool = True


@dataclass
class DispatchBranch:
    """One arm of a ``kind ==`` dispatcher chain (``kind=None`` = else)."""

    kind: Optional[str]
    line: int
    col: int
    calls: List[str] = field(default_factory=list)
    required: List[str] = field(default_factory=list)
    optional: List[str] = field(default_factory=list)


@dataclass
class FunctionSummary:
    """Everything the project rules need to know about one function."""

    name: str
    qualname: str                 # "<module>:<Class>.<name>" / "<module>:<name>"
    cls: Optional[str]
    line: int
    col: int
    params: List[str] = field(default_factory=list)
    param_str_defaults: Dict[str, str] = field(default_factory=dict)
    calls: List[CallRef] = field(default_factory=list)
    sends: List[SendSite] = field(default_factory=list)
    dispatches: List[DispatchBranch] = field(default_factory=list)
    #: payload keys read off an ``<obj>.body`` root: ``body["k"]`` vs
    #: ``body.get("k")``.
    body_required: List[str] = field(default_factory=list)
    body_optional: List[str] = field(default_factory=list)
    returns_set: bool = False
    #: dotted exprs of calls whose result this function returns (first
    #: tuple element counts: message-builder helpers return (dict, ...)).
    return_calls: List[str] = field(default_factory=list)
    #: message dict this function returns: (keys, kind, kind_param).
    returns_msg_keys: Optional[List[str]] = None
    returns_msg_kind: Optional[str] = None
    returns_msg_kind_param: Optional[str] = None
    #: call sites that construct an RNG through a module-level alias of
    #: a banned numpy constructor (DET006 anchors).
    rng_alias_calls: List[Tuple[int, int, str]] = field(default_factory=list)
    #: True if a banned-ctor (direct or aliased) result is returned.
    returns_rng: bool = False


@dataclass
class ClassSummary:
    name: str
    module: str
    line: int
    bases: List[str] = field(default_factory=list)
    methods: List[str] = field(default_factory=list)


@dataclass
class FileSummary:
    """The serialisable semantic digest of one source file."""

    path: str
    module: str                   # dotted module name
    scope: str
    imports: Dict[str, str] = field(default_factory=dict)
    classes: Dict[str, ClassSummary] = field(default_factory=dict)
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready payload; inverse of :meth:`from_dict`."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FileSummary":
        out = cls(path=payload["path"], module=payload["module"],
                  scope=payload["scope"],
                  imports=dict(payload.get("imports", {})))
        for name, raw in payload.get("classes", {}).items():
            out.classes[name] = ClassSummary(**raw)
        for qual, raw in payload.get("functions", {}).items():
            fn = FunctionSummary(
                name=raw["name"], qualname=raw["qualname"], cls=raw["cls"],
                line=raw["line"], col=raw["col"])
            fn.params = list(raw.get("params", []))
            fn.param_str_defaults = dict(raw.get("param_str_defaults", {}))
            fn.calls = [CallRef(**c) for c in raw.get("calls", [])]
            fn.sends = [SendSite(**s) for s in raw.get("sends", [])]
            fn.dispatches = [DispatchBranch(**d)
                             for d in raw.get("dispatches", [])]
            fn.body_required = list(raw.get("body_required", []))
            fn.body_optional = list(raw.get("body_optional", []))
            fn.returns_set = bool(raw.get("returns_set", False))
            fn.return_calls = list(raw.get("return_calls", []))
            fn.returns_msg_keys = raw.get("returns_msg_keys")
            fn.returns_msg_kind = raw.get("returns_msg_kind")
            fn.returns_msg_kind_param = raw.get("returns_msg_kind_param")
            fn.rng_alias_calls = [tuple(c)  # type: ignore[misc]
                                  for c in raw.get("rng_alias_calls", [])]
            fn.returns_rng = bool(raw.get("returns_rng", False))
            out.functions[qual] = fn
        return out


# ----------------------------------------------------------- module naming
def module_dotted_name(path: str) -> str:
    """Dotted module name derived from the ``__init__.py`` package chain.

    Walks up from the file while sibling ``__init__.py`` files exist, so
    ``src/repro/bb/controller.py`` names ``repro.bb.controller``
    wherever the tree is checked out. A file outside any package keeps
    its bare stem.
    """
    import os
    norm = os.path.normpath(path)
    head, tail = os.path.split(norm)
    stem = tail[:-3] if tail.endswith(".py") else tail
    parts = [stem] if stem != "__init__" else []
    while head and os.path.isfile(os.path.join(head, "__init__.py")):
        head, pkg = os.path.split(head)
        parts.append(pkg)
        if not pkg:
            break
    return ".".join(reversed(parts)) if parts else stem


# ------------------------------------------------------------- extraction
_SET_ANNOTATIONS = {"set", "Set", "frozenset", "FrozenSet", "AbstractSet",
                    "MutableSet"}

#: numpy constructors whose aliased call is a second seeding root.
_RNG_CTOR_SUFFIXES = ("random.default_rng", "random.RandomState",
                      "random.Generator", "random.PCG64")


def _const_str(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _walk_own(node: ast.AST) -> Iterable[ast.AST]:
    """Walk *node*'s subtree without descending into nested functions."""
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            continue
        yield child
        stack.extend(ast.iter_child_nodes(child))


def _walk_suite(stmts: Iterable[ast.stmt]) -> Iterable[ast.AST]:
    for stmt in stmts:
        yield stmt
        yield from _walk_own(stmt)


def _callee_expr(func: ast.AST) -> Optional[str]:
    """Dotted callee path, or ``"?.<attr>"`` for an unresolvable base."""
    name = dotted_name(func)
    if name is not None:
        return name
    if isinstance(func, ast.Attribute):
        return "?." + func.attr
    return None


def _annotation_is_set(node: Optional[ast.AST]) -> bool:
    if node is None:
        return False
    base: ast.AST = node
    if isinstance(base, ast.Subscript):
        base = base.value
    name = dotted_name(base)
    if name is None:
        return False
    return name.split(".")[-1] in _SET_ANNOTATIONS


class _DictTracker:
    """Flow-insensitive, per-function tracking of message-dict names.

    A name assigned a dict literal (or ``dict(base, k=v)`` over a
    tracked base) accumulates the union of keys it can carry; later
    ``name["k"] = v`` stores add to it. The union is conservative for
    silence: a handler key present at *any* point of the builder is
    never reported missing.
    """

    def __init__(self) -> None:
        # name -> (keys, kind const, kind param, kind dynamic)
        self.dicts: Dict[str, Dict[str, Any]] = {}
        # name -> callee expr (tuple element 0 of the callee's return)
        self.from_call: Dict[str, str] = {}

    def spec_of_literal(self, node: ast.Dict,
                        params: Set[str]) -> Dict[str, Any]:
        keys: List[str] = []
        spec: Dict[str, Any] = {"keys": keys, "kind": None,
                                "kind_param": None, "dynamic": False}
        for key_node, value in zip(node.keys, node.values):
            key = _const_str(key_node) if key_node is not None else None
            if key is None:
                if key_node is None and isinstance(value, ast.Name) and \
                        value.id in self.dicts:
                    # ``{**base, ...}`` over a tracked base.
                    base = self.dicts[value.id]
                    keys.extend(k for k in base["keys"] if k not in keys)
                    if spec["kind"] is None:
                        spec["kind"] = base["kind"]
                        spec["kind_param"] = base["kind_param"]
                        spec["dynamic"] = spec["dynamic"] or base["dynamic"]
                continue
            if key not in keys:
                keys.append(key)
            if key == _KIND_KEY:
                const = _const_str(value)
                if const is not None:
                    spec["kind"] = const
                elif isinstance(value, ast.Name) and value.id in params:
                    spec["kind_param"] = value.id
                else:
                    spec["dynamic"] = True
        return spec

    def spec_of(self, node: ast.AST,
                params: Set[str]) -> Optional[Dict[str, Any]]:
        """Message spec of an expression, if it is dict-resolvable."""
        if isinstance(node, ast.Dict):
            return self.spec_of_literal(node, params)
        if isinstance(node, ast.Name):
            return self.dicts.get(node.id)
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            if name == "dict":
                spec: Dict[str, Any] = {"keys": [], "kind": None,
                                        "kind_param": None, "dynamic": False}
                if node.args:
                    base = self.spec_of(node.args[0], params)
                    if base is not None:
                        spec = {"keys": list(base["keys"]),
                                "kind": base["kind"],
                                "kind_param": base["kind_param"],
                                "dynamic": base["dynamic"]}
                for kw in node.keywords:
                    if kw.arg is not None and kw.arg not in spec["keys"]:
                        spec["keys"].append(kw.arg)
                    if kw.arg == _KIND_KEY:
                        const = _const_str(kw.value)
                        spec["dynamic"] = const is None
                        spec["kind"] = const
                        spec["kind_param"] = None
                return spec
        return None

    def observe(self, stmt: ast.stmt, params: Set[str]) -> None:
        if isinstance(stmt, ast.Assign):
            targets = stmt.targets
            value = stmt.value
            # name["key"] = v augments a tracked dict.
            if len(targets) == 1 and isinstance(targets[0], ast.Subscript):
                sub = targets[0]
                if isinstance(sub.value, ast.Name) and \
                        sub.value.id in self.dicts:
                    key = _const_str(sub.slice)
                    if key is not None:
                        keys = self.dicts[sub.value.id]["keys"]
                        if key not in keys:
                            keys.append(key)
                return
            spec = self.spec_of(value, params)
            names: List[str] = []
            for target in targets:
                if isinstance(target, ast.Name):
                    names.append(target.id)
                elif isinstance(target, ast.Tuple) and target.elts and \
                        isinstance(target.elts[0], ast.Name):
                    # ``push, wire = self._encode_push(...)``
                    names.append(target.elts[0].id)
            if not names:
                return
            if spec is not None:
                for name in names:
                    self.dicts[name] = {"keys": list(spec["keys"]),
                                        "kind": spec["kind"],
                                        "kind_param": spec["kind_param"],
                                        "dynamic": spec["dynamic"]}
                    self.from_call.pop(name, None)
                return
            if isinstance(value, ast.Call):
                callee = _callee_expr(value.func)
                if callee is not None and callee != "dict":
                    for name in names:
                        self.from_call[name] = callee
                        self.dicts.pop(name, None)
                    return
            for name in names:
                self.dicts.pop(name, None)
                self.from_call.pop(name, None)


class _FunctionExtractor:
    """One pass over a function body filling its :class:`FunctionSummary`."""

    def __init__(self, summary: FunctionSummary,
                 rng_aliases: Set[str]) -> None:
        self.s = summary
        self.rng_aliases = rng_aliases
        self.params = set(summary.params)
        self.dicts = _DictTracker()
        #: (line, col) of calls sitting in iteration position.
        self.iter_call_locs: Set[Tuple[int, int]] = set()
        #: local names rooted at a ``<x>.body`` attribute (payload roots).
        #: A parameter literally named ``body`` counts: handlers receive
        #: the payload dict directly (``_on_control(self, rpc)`` style
        #: code rebinds ``body = rpc.body`` first, which is also caught).
        self.body_roots: Set[str] = set()
        if "body" in self.params:
            self.body_roots.add("body")
        #: local names holding the payload's ``kind`` value.
        self.kind_vars: Set[str] = set()
        #: id()s of elif nodes already recorded as part of a dispatch
        #: chain; the block scan descends into them and must not record
        #: the chain suffix a second time.
        self._chain_tails: Set[int] = set()
        self._required: List[str] = []
        self._optional: List[str] = []

    # -- payload reads ----------------------------------------------------
    def _is_body_expr(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Attribute) and node.attr == "body":
            return True
        return isinstance(node, ast.Name) and node.id in self.body_roots

    def _collect_reads(self, nodes: Iterable[ast.AST],
                       required: List[str], optional: List[str]) -> None:
        for node in nodes:
            if isinstance(node, ast.Subscript) and \
                    self._is_body_expr(node.value) and \
                    isinstance(node.ctx, ast.Load):
                key = _const_str(node.slice)
                if key is not None and key not in required:
                    required.append(key)
            elif isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "get" and \
                    self._is_body_expr(node.func.value) and node.args:
                key = _const_str(node.args[0])
                if key is not None and key not in optional:
                    optional.append(key)

    # -- statement scan ---------------------------------------------------
    def _observe_bindings(self, stmt: ast.stmt) -> None:
        self.dicts.observe(stmt, self.params)
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            return
        target = stmt.targets[0]
        if not isinstance(target, ast.Name):
            return
        value = stmt.value
        if self._is_body_expr(value):
            self.body_roots.add(target.id)
        elif isinstance(value, ast.Subscript) and \
                self._is_body_expr(value.value) and \
                _const_str(value.slice) == _KIND_KEY:
            self.kind_vars.add(target.id)
        elif isinstance(value, ast.Call) and \
                isinstance(value.func, ast.Attribute) and \
                value.func.attr == "get" and \
                self._is_body_expr(value.func.value) and value.args and \
                _const_str(value.args[0]) == _KIND_KEY:
            self.kind_vars.add(target.id)

    def _record_call(self, node: ast.Call) -> None:
        expr = _callee_expr(node.func)
        if expr is None:
            return
        pos = [_const_str(a) for a in node.args]
        kws = {kw.arg: _const_str(kw.value) for kw in node.keywords
               if kw.arg is not None}
        self.s.calls.append(CallRef(
            expr=expr, line=node.lineno, col=node.col_offset,
            pos_consts=pos,
            kw_consts={k: v for k, v in kws.items() if v is not None},
            in_iter=(node.lineno, node.col_offset) in self.iter_call_locs))
        if isinstance(node.func, ast.Attribute) and node.func.attr == "call":
            self._record_send(node)
        base = dotted_name(node.func)
        if base is not None and base in self.rng_aliases:
            self.s.rng_alias_calls.append(
                (node.lineno, node.col_offset, base))

    def _record_send(self, node: ast.Call) -> None:
        if not node.args:
            return
        op = _const_str(node.args[0])
        if op is None:
            return
        body = node.args[1] if len(node.args) > 1 else None
        for kw in node.keywords:
            if kw.arg == "body":
                body = kw.value
        site = SendSite(op=op, line=node.lineno, col=node.col_offset)
        if body is None:
            site.body_known = False
        else:
            spec = self.dicts.spec_of(body, self.params)
            if spec is not None:
                site.keys = list(spec["keys"])
                site.kind = spec["kind"]
                site.kind_param = spec["kind_param"]
                site.kind_dynamic = bool(spec["dynamic"])
            elif isinstance(body, ast.Name) and \
                    body.id in self.dicts.from_call:
                site.body_call = self.dicts.from_call[body.id]
            elif isinstance(body, ast.Call):
                callee = _callee_expr(body.func)
                if callee is not None:
                    site.body_call = callee
                else:
                    site.body_known = False
            else:
                site.body_known = False
        self.s.sends.append(site)

    # -- kind dispatch ----------------------------------------------------
    def _kind_of_test(self, test: ast.AST) -> Optional[str]:
        """The constant compared against the kind var, if *test* is one."""
        if not isinstance(test, ast.Compare) or len(test.ops) != 1 or \
                not isinstance(test.ops[0], ast.Eq):
            return None
        left, right = test.left, test.comparators[0]
        for var, lit in ((left, right), (right, left)):
            const = _const_str(lit)
            if const is None:
                continue
            if isinstance(var, ast.Name) and var.id in self.kind_vars:
                return const
            if isinstance(var, ast.Subscript) and \
                    self._is_body_expr(var.value) and \
                    _const_str(var.slice) == _KIND_KEY:
                return const
        return None

    def _branch_summary(self, kind: Optional[str],
                        stmts: List[ast.stmt],
                        anchor: ast.AST) -> DispatchBranch:
        branch = DispatchBranch(kind=kind, line=anchor.lineno,
                                col=anchor.col_offset)
        for node in _walk_suite(stmts):
            if isinstance(node, ast.Call):
                expr = _callee_expr(node.func)
                if expr is not None:
                    branch.calls.append(expr)
        self._collect_reads(_walk_suite(stmts), branch.required,
                            branch.optional)
        return branch

    def _scan_dispatch(self, stmt: ast.If) -> None:
        """Record *stmt* if it heads a kind-dispatch chain."""
        if id(stmt) in self._chain_tails:
            return  # suffix of a chain already recorded at its head
        chain: List[Tuple[str, ast.If]] = []
        orelse: List[ast.stmt] = [stmt]
        while len(orelse) == 1 and isinstance(orelse[0], ast.If):
            node = orelse[0]
            kind = self._kind_of_test(node.test)
            if kind is None:
                break
            if node is not stmt:
                self._chain_tails.add(id(node))
            chain.append((kind, node))
            orelse = node.orelse
        if not chain:
            return
        for kind, node in chain:
            self.s.dispatches.append(
                self._branch_summary(kind, node.body, node))
        if orelse:
            self.s.dispatches.append(
                self._branch_summary(None, orelse, orelse[0]))

    # -- drive ------------------------------------------------------------
    def run(self, func: ast.AST) -> None:
        body = list(getattr(func, "body", []))
        for node in _walk_suite(body):
            iters: List[ast.AST] = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if isinstance(it, ast.Call):
                    self.iter_call_locs.add((it.lineno, it.col_offset))
        self._scan_block(body)
        # Whole-function payload reads (handler surface).
        self._collect_reads(_walk_suite(body), self._required,
                            self._optional)
        self.s.body_required = self._required
        self.s.body_optional = [k for k in self._optional
                                if k not in self._required]
        self._scan_returns(body)

    def _scan_block(self, stmts: List[ast.stmt]) -> None:
        for stmt in stmts:
            self._observe_bindings(stmt)
            for node in ([stmt] if not isinstance(stmt, (ast.FunctionDef,
                         ast.AsyncFunctionDef, ast.ClassDef)) else []):
                for sub in _iter_stmt_exprs(node):
                    for call in ast.walk(sub):
                        if isinstance(call, ast.Call):
                            self._record_call(call)
            if isinstance(stmt, ast.If):
                self._scan_dispatch(stmt)
                self._scan_block(stmt.body)
                self._scan_block(stmt.orelse)
            elif isinstance(stmt, (ast.For, ast.AsyncFor, ast.While)):
                self._scan_block(stmt.body)
                self._scan_block(stmt.orelse)
            elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                self._scan_block(stmt.body)
            elif isinstance(stmt, ast.Try):
                self._scan_block(stmt.body)
                for handler in stmt.handlers:
                    self._scan_block(handler.body)
                self._scan_block(stmt.orelse)
                self._scan_block(stmt.finalbody)

    def _scan_returns(self, body: List[ast.stmt]) -> None:
        set_returns = 0
        returns = 0
        for node in _walk_suite(body):
            if not isinstance(node, ast.Return) or node.value is None:
                continue
            returns += 1
            value: ast.AST = node.value
            if isinstance(value, ast.Tuple) and value.elts:
                value = value.elts[0]
            if _is_set_expr(value):
                set_returns += 1
            spec = self.dicts.spec_of(value, self.params)
            if spec is not None:
                # Union across every message-returning path, so a
                # builder with a full and a delta form advertises both
                # shapes' keys.
                if self.s.returns_msg_keys is None:
                    self.s.returns_msg_keys = []
                self.s.returns_msg_keys.extend(
                    k for k in spec["keys"]
                    if k not in self.s.returns_msg_keys)
                if self.s.returns_msg_kind is None:
                    self.s.returns_msg_kind = spec["kind"]
                if self.s.returns_msg_kind_param is None:
                    self.s.returns_msg_kind_param = spec["kind_param"]
            if isinstance(value, ast.Call):
                callee = _callee_expr(value.func)
                if callee is not None:
                    self.s.return_calls.append(callee)
                name = dotted_name(value.func)
                if name is not None and (
                        name in self.rng_aliases or
                        any(name == sfx or name.endswith("." + sfx)
                            for sfx in _RNG_CTOR_SUFFIXES)):
                    self.s.returns_rng = True
            elif isinstance(value, ast.Name) and \
                    value.id in self.dicts.from_call:
                self.s.return_calls.append(self.dicts.from_call[value.id])
        if returns and set_returns == returns:
            self.s.returns_set = True


def _is_set_expr(node: ast.AST) -> bool:
    """Whether *node* syntactically evaluates to a set.

    Mirrors ``rules._util.SetExprTracker.is_set_expr`` minus the taint
    map (which needs per-function assignment flow the summary pass does
    not keep): literals, ``set()``/``frozenset()`` calls, and set-algebra
    operators over either form.
    """
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        return dotted_name(node.func) in ("set", "frozenset")
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        return _is_set_expr(node.left) or _is_set_expr(node.right)
    return False


def _iter_stmt_exprs(stmt: ast.stmt) -> Iterable[ast.AST]:
    """Expressions owned by *stmt* itself, not its nested suites."""
    for fname, value in ast.iter_fields(stmt):
        if fname in ("body", "orelse", "finalbody", "handlers"):
            continue
        if isinstance(value, ast.expr):
            yield value
        elif isinstance(value, list):
            for item in value:
                if isinstance(item, ast.expr):
                    yield item


def _module_rng_aliases(tree: ast.Module) -> Set[str]:
    """Module-level names aliasing a banned numpy RNG constructor."""
    aliases: Set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 and \
                isinstance(stmt.targets[0], ast.Name):
            value = dotted_name(stmt.value)
            if value is not None and any(
                    value == sfx or value.endswith("." + sfx)
                    for sfx in _RNG_CTOR_SUFFIXES):
                aliases.add(stmt.targets[0].id)
        elif isinstance(stmt, ast.ImportFrom) and stmt.module and \
                stmt.module.startswith("numpy"):
            for alias in stmt.names:
                if alias.name in ("default_rng", "RandomState", "Generator",
                                  "PCG64"):
                    aliases.add(alias.asname or alias.name)
    return aliases


def summarize_module(module: Module) -> FileSummary:
    """Extract the :class:`FileSummary` of one parsed module."""
    assert module.tree is not None
    dotted = module_dotted_name(module.path)
    summary = FileSummary(path=module.path, module=dotted,
                          scope=module.scope)
    tree = module.tree
    rng_aliases = _module_rng_aliases(tree)

    for stmt in tree.body:
        if isinstance(stmt, ast.Import):
            for alias in stmt.names:
                summary.imports[alias.asname or
                                alias.name.split(".")[0]] = alias.name
        elif isinstance(stmt, ast.ImportFrom):
            if stmt.module is None or stmt.level:
                base = _relative_base(dotted, stmt.level, stmt.module)
            else:
                base = stmt.module
            for alias in stmt.names:
                summary.imports[alias.asname or alias.name] = \
                    f"{base}.{alias.name}" if base else alias.name

    def add_function(func: ast.AST, cls: Optional[str]) -> None:
        name = getattr(func, "name", "<lambda>")
        qual = f"{dotted}:{cls}.{name}" if cls else f"{dotted}:{name}"
        args = getattr(func, "args")
        params = [a.arg for a in args.posonlyargs + args.args +
                  args.kwonlyargs]
        fn = FunctionSummary(name=name, qualname=qual, cls=cls,
                             line=func.lineno, col=func.col_offset,
                             params=params)
        defaults = list(args.defaults)
        if defaults:
            for param, default in zip(params[len(params) -
                                             len(defaults):], defaults):
                const = _const_str(default)
                if const is not None:
                    fn.param_str_defaults[param] = const
        for param, default in zip([a.arg for a in args.kwonlyargs],
                                  args.kw_defaults):
            if default is not None:
                const = _const_str(default)
                if const is not None:
                    fn.param_str_defaults[param] = const
        if _annotation_is_set(getattr(func, "returns", None)):
            fn.returns_set = True
        extractor = _FunctionExtractor(fn, rng_aliases)
        extractor.run(func)
        summary.functions[qual] = fn

    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            add_function(stmt, None)
            for nested in ast.walk(stmt):
                if nested is not stmt and isinstance(
                        nested, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    add_function(nested, None)
        elif isinstance(stmt, ast.ClassDef):
            cls_summary = ClassSummary(
                name=stmt.name, module=dotted, line=stmt.lineno,
                bases=[b for b in (dotted_name(base)
                                   for base in stmt.bases) if b is not None])
            for sub in stmt.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    cls_summary.methods.append(sub.name)
                    add_function(sub, stmt.name)
            summary.classes[stmt.name] = cls_summary

    return summary


def _relative_base(dotted: str, level: int,
                   module: Optional[str]) -> str:
    """Absolute base module of a relative import inside *dotted*."""
    parts = dotted.split(".")
    # level 1 = current package; the module name itself is not a package.
    keep = len(parts) - level
    base_parts = parts[:keep] if keep > 0 else []
    if module:
        base_parts.append(module)
    return ".".join(base_parts)


# ------------------------------------------------------------------ index
class ProjectIndex:
    """Symbol table + call graph over every src-scope file summary."""

    def __init__(self, summaries: Iterable[FileSummary]) -> None:
        self.files: Dict[str, FileSummary] = {}
        self.functions: Dict[str, FunctionSummary] = {}
        self.classes: Dict[str, ClassSummary] = {}        # "module:Class"
        self._class_by_name: Dict[str, List[str]] = {}
        self._fn_by_bare_name: Dict[str, List[str]] = {}
        self._method_index: Dict[Tuple[str, str], str] = {}
        #: scratch space for rules sharing derived analyses (e.g. the
        #: PROTO rules' protocol model) across one lint invocation.
        self.memo: Dict[str, Any] = {}
        for summary in summaries:
            self.files[summary.module] = summary
            for qual, fn in summary.functions.items():
                self.functions[qual] = fn
                self._fn_by_bare_name.setdefault(fn.name, []).append(qual)
            for cls in summary.classes.values():
                key = f"{summary.module}:{cls.name}"
                self.classes[key] = cls
                self._class_by_name.setdefault(cls.name, []).append(key)
                for method in cls.methods:
                    self._method_index[(key, method)] = \
                        f"{summary.module}:{cls.name}.{method}"
        self._edges: Dict[str, List[str]] = {}
        self._build_edges()

    # -- resolution -------------------------------------------------------
    def _resolve_import_target(self, module: str,
                               target: str) -> Optional[str]:
        """Qualname of an imported function/class, if in the project."""
        if target in self.files:
            return None                      # a module, not a symbol
        head, _, attr = target.rpartition(".")
        if head and head in self.files:
            if f"{head}:{attr}" in self.functions:
                return f"{head}:{attr}"
            if f"{head}:{attr}" in self.classes:
                return f"class:{head}:{attr}"
            # re-export through a package __init__: search by bare name
            return self._unique_by_name(attr)
        return None

    def _unique_by_name(self, name: str) -> Optional[str]:
        """Project-unique function (module-level or method) named *name*.

        Builtin container/str method names never match: the receiver is
        far more likely a plain dict/list than the one project class
        that happens to define the same verb.
        """
        if name in _BUILTIN_METHOD_NAMES:
            return None
        candidates = self._fn_by_bare_name.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def _resolve_method(self, class_key: str,
                        method: str) -> Optional[str]:
        """Resolve *method* on *class_key*, walking base classes."""
        seen: Set[str] = set()
        queue: Deque[str] = deque([class_key])
        while queue:
            key = queue.popleft()
            if key in seen:
                continue
            seen.add(key)
            hit = self._method_index.get((key, method))
            if hit is not None:
                return hit
            cls = self.classes.get(key)
            if cls is None:
                continue
            summary = self.files.get(cls.module)
            for base in cls.bases:
                base_name = base.split(".")[-1]
                base_key = None
                if summary is not None and base in summary.imports:
                    target = summary.imports[base]
                    head, _, attr = target.rpartition(".")
                    if head in self.files and f"{head}:{attr}" in self.classes:
                        base_key = f"{head}:{attr}"
                if base_key is None and f"{cls.module}:{base_name}" \
                        in self.classes:
                    base_key = f"{cls.module}:{base_name}"
                if base_key is None:
                    keys = self._class_by_name.get(base_name, [])
                    if len(keys) == 1:
                        base_key = keys[0]
                if base_key is not None:
                    queue.append(base_key)
        return None

    def resolve_call(self, caller: FunctionSummary,
                     expr: str) -> Optional[str]:
        """Qualname of the function *expr* calls from *caller*, or None.

        Resolution order: ``self.m`` through the caller's class (and
        bases); bare names through module scope then imports; dotted
        names through import aliases; any remaining attribute call
        through the by-unique-name fallback (a method name defined by
        exactly one project class). Unresolvable calls return ``None``
        and contribute no edge.
        """
        module = caller.qualname.split(":", 1)[0]
        summary = self.files.get(module)
        parts = expr.split(".")
        if parts[0] == "self" and caller.cls is not None:
            if len(parts) == 2:
                hit = self._resolve_method(f"{module}:{caller.cls}",
                                           parts[1])
                if hit is not None:
                    return hit
            return self._unique_by_name(parts[-1]) \
                if len(parts) > 2 else None
        if len(parts) == 1:
            name = parts[0]
            if f"{module}:{name}" in self.functions:
                return f"{module}:{name}"
            if summary is not None and name in summary.imports:
                target = self._resolve_import_target(module,
                                                     summary.imports[name])
                if target is not None and not target.startswith("class:"):
                    return target
                if target is not None and target.startswith("class:"):
                    # constructor: resolve to its __init__ when indexed
                    key = target[len("class:"):]
                    return self._method_index.get((key, "__init__"))
            if f"{module}:{name}" in self.classes:
                return self._method_index.get((f"{module}:{name}",
                                               "__init__"))
            return None
        # dotted: alias.func / pkg.mod.func / ?.attr / obj.attr
        head, attr = parts[0], parts[-1]
        if head != "?" and summary is not None and head in summary.imports:
            target_module = summary.imports[head]
            if len(parts) == 2 and target_module in self.files:
                qual = f"{target_module}:{attr}"
                if qual in self.functions:
                    return qual
                if f"{target_module}:{attr}" in self.classes:
                    return self._method_index.get(
                        (f"{target_module}:{attr}", "__init__"))
        full_module = ".".join(parts[:-1])
        if full_module in self.files:
            qual = f"{full_module}:{attr}"
            if qual in self.functions:
                return qual
        return self._unique_by_name(attr)

    # -- call graph -------------------------------------------------------
    def _build_edges(self) -> None:
        for qual in sorted(self.functions):
            fn = self.functions[qual]
            targets: List[str] = []
            for call in fn.calls:
                resolved = self.resolve_call(fn, call.expr)
                if resolved is not None and resolved not in targets:
                    targets.append(resolved)
            self._edges[qual] = targets

    def callees(self, qualname: str) -> List[str]:
        """Resolved direct callees of *qualname* (empty if unknown)."""
        return self._edges.get(qualname, [])

    def reachable(self, roots: Iterable[str]) -> Set[str]:
        """Every function reachable from *roots* (roots included)."""
        seen: Set[str] = set()
        queue: Deque[str] = deque(roots)
        while queue:
            qual = queue.popleft()
            if qual in seen or qual not in self.functions:
                continue
            seen.add(qual)
            queue.extend(self._edges.get(qual, []))
        return seen

    def resolve_exprs(self, caller: FunctionSummary,
                      exprs: Iterable[str]) -> List[str]:
        """Deduplicated resolutions of *exprs*, unresolvables dropped."""
        out: List[str] = []
        for expr in exprs:
            resolved = self.resolve_call(caller, expr)
            if resolved is not None and resolved not in out:
                out.append(resolved)
        return out

    # -- protocol helpers -------------------------------------------------
    def resolved_sends(self) -> List[Tuple[FunctionSummary, SendSite,
                                           List[str], List[str]]]:
        """Every send site with kinds and keys resolved project-wide.

        Returns ``(function, site, kinds, keys)`` tuples; ``kinds`` is
        empty for a kindless send and ``["<dynamic>"]`` when the kind
        could not be resolved to constants.
        """
        out: List[Tuple[FunctionSummary, SendSite, List[str], List[str]]] = []
        for qual in sorted(self.functions):
            fn = self.functions[qual]
            for site in fn.sends:
                keys = list(site.keys)
                kind_const = site.kind
                kind_param = site.kind_param
                dynamic = site.kind_dynamic
                if site.body_call is not None:
                    target = self.resolve_call(fn, site.body_call)
                    builder = self.functions.get(target) \
                        if target is not None else None
                    if builder is not None and \
                            builder.returns_msg_keys is not None:
                        keys = list(builder.returns_msg_keys)
                        kind_const = builder.returns_msg_kind
                        kind_param = builder.returns_msg_kind_param
                        if kind_param is not None:
                            kinds = self._kind_param_values(target or "",
                                                            kind_param)
                            out.append((fn, site, kinds, keys))
                            continue
                    else:
                        out.append((fn, site, ["<unknown>"], []))
                        continue
                if kind_param is not None:
                    kinds = self._kind_param_values(qual, kind_param)
                elif kind_const is not None:
                    kinds = [kind_const]
                elif dynamic:
                    kinds = ["<dynamic>"]
                else:
                    kinds = []
                out.append((fn, site, kinds, keys))
        return out

    def _kind_param_values(self, qualname: str, param: str) -> List[str]:
        """Constant values callers pass for *param* of *qualname*."""
        fn = self.functions.get(qualname)
        if fn is None:
            return ["<dynamic>"]
        values: List[str] = []
        if param in fn.param_str_defaults:
            values.append(fn.param_str_defaults[param])
        try:
            pos_index = fn.params.index(param)
        except ValueError:
            pos_index = -1
        if fn.params and fn.params[0] == "self" and pos_index > 0:
            pos_index -= 1
        explicit = False
        for caller_qual in sorted(self.functions):
            caller = self.functions[caller_qual]
            for call in caller.calls:
                if self.resolve_call(caller, call.expr) != qualname:
                    continue
                const = call.kw_consts.get(param)
                if const is None and 0 <= pos_index < len(call.pos_consts):
                    const = call.pos_consts[pos_index]
                    if const is None:
                        continue
                if const is not None:
                    explicit = True
                    if const not in values:
                        values.append(const)
        if not values:
            return ["<dynamic>"]
        if not explicit and param not in fn.param_str_defaults:
            return ["<dynamic>"]
        return values

    def dispatchers(self) -> List[Tuple[FunctionSummary, DispatchBranch]]:
        """Every kind-dispatch branch in the project, with its owner."""
        out: List[Tuple[FunctionSummary, DispatchBranch]] = []
        for qual in sorted(self.functions):
            fn = self.functions[qual]
            for branch in fn.dispatches:
                out.append((fn, branch))
        return out
