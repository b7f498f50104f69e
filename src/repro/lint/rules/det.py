"""DET-class rules: violations of the same-seed => same-trace contract.

DET001-005 look at one file. DET007 needs one cross-file fact, the bare
names of the project's set-returning functions
(:func:`set_returning_names`, collected by the runner before any rule
runs and handed over as ``Module.set_returning``).
"""

from __future__ import annotations

import ast
from typing import (Dict, FrozenSet, Iterable, Iterator, List, Optional,
                    Set)

from ..core import Finding, Module, Rule, Severity, register
from ._util import (FuncDef, SetExprTracker, dotted_name, iter_functions,
                    statements_in_order)

__all__ = ["RawRandomRule", "AdHocNumpyRngRule", "WallClockRule",
           "UnorderedIterationRule", "IdOrderingRule",
           "UnorderedEscapeRule", "set_returning_names"]


@register
class RawRandomRule(Rule):
    """DET001: the stdlib ``random`` module in simulation code.

    ``random`` draws from interpreter-global state that any import can
    perturb; every stochastic component must pull from a named
    ``RngRegistry`` stream instead.
    """

    id = "DET001"
    severity = Severity.ERROR
    title = "stdlib random module in sim code"
    rationale = ("global random state breaks per-stream reproducibility; "
                 "use sim.rng.RngRegistry streams")
    scopes = ("src",)

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or \
                            alias.name.startswith("random."):
                        yield self.finding(
                            module, node,
                            "import of stdlib 'random'; draw from a named "
                            "RngRegistry stream instead")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random":
                    yield self.finding(
                        module, node,
                        "import from stdlib 'random'; draw from a named "
                        "RngRegistry stream instead")


@register
class AdHocNumpyRngRule(Rule):
    """DET002: numpy generators constructed outside the RngRegistry.

    An ad-hoc ``default_rng(0)`` is a second seeding root: its draws
    are not derived from the experiment seed, and adding one perturbs
    nothing *visibly* until a trace diff three PRs later. Any reference
    to a banned constructor is flagged, not only a call: ``_mk =
    np.random.default_rng`` launders every later ``_mk(...)``.
    Annotations (``rng: np.random.Generator``) construct nothing and
    are skipped.
    """

    id = "DET002"
    severity = Severity.ERROR
    title = "ad-hoc numpy RNG construction"
    rationale = ("all generators must be spawned from RngRegistry so one "
                 "experiment seed derives every stream")
    scopes = ("src",)
    exempt_suffixes = ("repro/sim/rng.py",)

    _BANNED_SUFFIXES = (
        "random.default_rng", "random.seed", "random.RandomState",
        "random.Generator", "random.PCG64", "random.SeedSequence",
    )
    _BANNED_BARE = {"default_rng", "RandomState", "SeedSequence"}

    def _bare_imports(self, module: Module) -> Set[str]:
        names: Set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module and \
                    node.module.startswith("numpy"):
                for alias in node.names:
                    if alias.name in self._BANNED_BARE:
                        names.add(alias.asname or alias.name)
        return names

    def _annotation_nodes(self, module: Module) -> Set[ast.AST]:
        """Every node inside a parameter, return or variable annotation."""
        roots: List[Optional[ast.AST]] = []
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.arg, ast.AnnAssign)):
                roots.append(node.annotation)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                roots.append(node.returns)
        return {sub for root in roots if root is not None
                for sub in ast.walk(root)}

    def check(self, module: Module) -> Iterator[Finding]:
        bare = self._bare_imports(module)
        annotations = self._annotation_nodes(module)
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.Attribute, ast.Name)) or \
                    node in annotations:
                continue
            name = dotted_name(node)
            if name is None:
                continue
            if any(name == sfx or name.endswith("." + sfx)
                   for sfx in self._BANNED_SUFFIXES) or name in bare:
                yield self.finding(
                    module, node,
                    f"ad-hoc numpy RNG '{name}'; route through a named "
                    "RngRegistry stream")


@register
class WallClockRule(Rule):
    """DET003: wall-clock reads in simulation code.

    Simulated time is ``engine.now``; host time leaking into sim state
    makes traces unrepeatable. ``time.perf_counter`` stays legal: it is
    the sanctioned way to *measure* host wall time in benchmarks and
    never feeds simulation state.
    """

    id = "DET003"
    severity = Severity.ERROR
    title = "wall-clock read in sim code"
    rationale = "sim state must depend on engine.now, never host time"
    scopes = ("src",)

    _BANNED = (
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.localtime", "time.gmtime", "datetime.now", "datetime.utcnow",
        "datetime.today", "date.today",
    )

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            if any(name == b or name.endswith("." + b) for b in self._BANNED):
                yield self.finding(
                    module, node,
                    f"wall-clock call '{name}' in sim code; use engine.now "
                    "(waive only for host-side metadata)")


@register
class UnorderedIterationRule(Rule):
    """DET004: iterating a set where order can reach scheduling or output.

    Set iteration order depends on hash seeding and insertion history;
    float summation over it is order-dependent even when the *elements*
    are identical. (Plain dict iteration is insertion-ordered and
    therefore deterministic — only set-valued expressions are flagged.)
    The fix is ``sorted(...)`` at the iteration site.
    """

    id = "DET004"
    severity = Severity.ERROR
    title = "iteration over unordered set"
    rationale = ("set order is not part of the trace contract; sort before "
                 "iterating when order can matter")
    scopes = ("src", "tests")

    _ORDERED_SINKS = {"list", "tuple", "sum", "enumerate"}

    def check(self, module: Module) -> Iterator[Finding]:
        scopes: List[ast.AST] = [module.tree]
        scopes.extend(n for n in ast.walk(module.tree)
                      if isinstance(n, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)))
        for scope in scopes:
            tracker = SetExprTracker()
            for stmt in statements_in_order(scope):
                yield from self._scan_statement(module, stmt, tracker)
                tracker.observe(stmt)

    def _header_exprs(self, stmt: ast.stmt) -> List[ast.AST]:
        """Expressions owned by *stmt* itself (not its nested bodies)."""
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return [stmt.iter]
        if isinstance(stmt, (ast.While, ast.If)):
            return [stmt.test]
        if isinstance(stmt, (ast.Assign, ast.AugAssign, ast.Return,
                             ast.Expr)):
            return [stmt.value] if stmt.value is not None else []
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            return [stmt.value]
        if isinstance(stmt, ast.Assert):
            return [stmt.test]
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            return [item.context_expr for item in stmt.items]
        if isinstance(stmt, ast.Raise) and stmt.exc is not None:
            return [stmt.exc]
        return []

    def _scan_statement(self, module: Module, stmt: ast.stmt,
                        tracker: SetExprTracker) -> Iterator[Finding]:
        if isinstance(stmt, (ast.For, ast.AsyncFor)) and \
                tracker.is_set_expr(stmt.iter):
            yield self.finding(
                module, stmt.iter,
                "for-loop over a set expression; iterate "
                "sorted(...) instead")
        for expr in self._header_exprs(stmt):
            for node in ast.walk(expr):
                if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                     ast.GeneratorExp)):
                    for gen in node.generators:
                        if tracker.is_set_expr(gen.iter):
                            yield self.finding(
                                module, gen.iter,
                                "comprehension over a set expression; "
                                "iterate sorted(...) instead")
                elif isinstance(node, ast.Call):
                    name = dotted_name(node.func)
                    if name in self._ORDERED_SINKS and node.args and \
                            tracker.is_set_expr(node.args[0]):
                        yield self.finding(
                            module, node.args[0],
                            f"'{name}(...)' consumes a set expression in "
                            "arbitrary order; wrap it in sorted(...)")


@register
class IdOrderingRule(Rule):
    """DET005: ordering or hashing by object identity.

    ``id()`` values vary across runs with allocator state; any ordering
    or hash derived from them is non-reproducible by construction.
    """

    id = "DET005"
    severity = Severity.ERROR
    title = "id()-based ordering or hashing"
    rationale = "object addresses differ across runs; sort by stable keys"
    scopes = ("src", "tests")

    def _lambda_calls_id(self, node: ast.AST) -> bool:
        if not isinstance(node, ast.Lambda):
            return False
        for sub in ast.walk(node.body):
            if isinstance(sub, ast.Call) and \
                    isinstance(sub.func, ast.Name) and sub.func.id == "id":
                return True
        return False

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            for kw in node.keywords:
                if kw.arg != "key":
                    continue
                if isinstance(kw.value, ast.Name) and kw.value.id == "id":
                    yield self.finding(
                        module, kw.value,
                        "key=id orders by object address; use a stable key")
                elif self._lambda_calls_id(kw.value):
                    yield self.finding(
                        module, kw.value,
                        "sort key calls id(); object addresses are not "
                        "stable across runs")
            name = dotted_name(node.func)
            if name == "hash" and node.args and \
                    isinstance(node.args[0], ast.Call):
                inner = dotted_name(node.args[0].func)
                if inner == "id":
                    yield self.finding(
                        module, node,
                        "hash(id(...)) is run-dependent; hash a stable key")


#: Builtin container/str method names DET007 never matches by bare
#: name: ``some_dict.pop(...)`` is far more likely a plain dict than the
#: one project class that happens to define the same verb.
_BUILTIN_METHOD_NAMES = frozenset({
    "append", "appendleft", "add", "insert", "extend", "remove",
    "discard", "pop", "popleft", "popitem", "clear", "update",
    "setdefault", "get", "keys", "values", "items", "copy", "count",
    "index", "sort", "reverse", "split", "join", "strip", "format",
    "encode", "decode",
})

_SET_ANNOTATIONS = {"set", "Set", "frozenset", "FrozenSet", "AbstractSet",
                    "MutableSet"}


def _returns_set(func: FuncDef) -> bool:
    """Whether *func* is annotated ``-> Set[...]`` or every value it
    returns is syntactically a set (what DET004 calls a set expression,
    locals bound to one included)."""
    annotation = func.returns
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    name = dotted_name(annotation) if annotation is not None else None
    if name is not None and name.rpartition(".")[2] in _SET_ANNOTATIONS:
        return True
    tracker = SetExprTracker()
    returned: List[bool] = []
    for stmt in statements_in_order(func):
        if isinstance(stmt, ast.Return) and stmt.value is not None:
            returned.append(tracker.is_set_expr(stmt.value))
        tracker.observe(stmt)
    return bool(returned) and all(returned)


def set_returning_names(trees: Iterable[ast.Module]) -> FrozenSet[str]:
    """Bare function names that mean "a set comes back" across *trees*.

    A name qualifies when *every* function or method so named returns a
    set, so a call site can be judged by the name alone: no symbol
    table, no import resolution. Builtin container verbs never qualify.
    """
    verdict: Dict[str, bool] = {}
    for tree in trees:
        for func in iter_functions(tree):
            verdict[func.name] = verdict.get(func.name, True) and \
                _returns_set(func)
    return frozenset(name for name, every in verdict.items()
                     if every and name not in _BUILTIN_METHOD_NAMES)


@register
class UnorderedEscapeRule(Rule):
    """DET007: iterating a set returned across a function boundary.

    DET004 sees ``for x in some_set`` inside one file; it cannot know
    that ``monitor.active_local_jobs()`` three modules away returns a
    set. This rule flags a for-loop or comprehension whose iterable is
    a call to one of ``module.set_returning`` — the order then leaks
    into whatever the loop schedules. ``sorted(...)`` at the call site
    silences it.
    """

    id = "DET007"
    severity = Severity.ERROR
    title = "unordered set escapes across function boundary"
    rationale = ("a set-returning helper plus a bare for-loop at the "
                 "caller reorders events across runs; sort at the "
                 "iteration site")
    scopes = ("src",)

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters = [node.iter]
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters = [gen.iter for gen in node.generators]
            else:
                continue
            for call in iters:
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                name = func.attr if isinstance(func, ast.Attribute) \
                    else getattr(func, "id", None)
                if name in module.set_returning:
                    yield self.finding(
                        module, call,
                        f"iterating the set returned by '{name}()' in "
                        "arbitrary order; wrap the call in sorted(...)")
