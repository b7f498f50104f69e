"""PERF-class advisory rules: hot-path hygiene.

Advisories never fail a run (unless ``--strict``); they exist so a
reviewer sees the perf debt in the diff that introduces it.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set

from ..core import Finding, Module, Rule, Severity, register
from ._util import dotted_name, iter_functions, statements_in_order

__all__ = ["MissingSlotsRule", "FloatAccumulationRule", "ListHeadShiftRule",
           "TimerChurnRule"]

#: Modules whose classes are instantiated inside bench kernels; the
#: event/request/extent churn there makes per-instance ``__dict__``
#: allocation measurable (see DESIGN.md §5).
HOT_MODULE_SUFFIXES = (
    "repro/sim/engine.py", "repro/sim/process.py", "repro/sim/resources.py",
    "repro/core/tokens.py", "repro/core/queues.py",
    "repro/core/scheduler.py", "repro/fs/striping.py",
    "repro/fs/storage.py", "repro/fs/locking.py", "repro/net/message.py",
    "repro/bb/request.py",
)


@register
class MissingSlotsRule(Rule):
    """PERF101: hot-path class without ``__slots__``.

    Only fires in the modules bench kernels allocate from. Decorated
    classes (dataclasses etc.) and exception types are skipped — their
    layout is the decorator's business.
    """

    id = "PERF101"
    severity = Severity.ADVISORY
    title = "missing __slots__ on hot-path class"
    rationale = ("instances allocated on bench hot paths pay for a "
                 "__dict__ each; __slots__ removes it")
    scopes = ("src",)

    def _sets_self_attrs(self, cls: ast.ClassDef) -> bool:
        for item in cls.body:
            if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                for node in ast.walk(item):
                    if isinstance(node, ast.Attribute) and \
                            isinstance(node.ctx, ast.Store) and \
                            isinstance(node.value, ast.Name) and \
                            node.value.id == "self":
                        return True
        return False

    def _has_slots(self, cls: ast.ClassDef) -> bool:
        for item in cls.body:
            targets: List[ast.expr] = []
            if isinstance(item, ast.Assign):
                targets = list(item.targets)
            elif isinstance(item, ast.AnnAssign):
                targets = [item.target]
            for target in targets:
                if isinstance(target, ast.Name) and \
                        target.id == "__slots__":
                    return True
        return False

    def _exceptionish(self, cls: ast.ClassDef) -> bool:
        if cls.name.endswith(("Error", "Exception", "Warning")):
            return True
        for base in cls.bases:
            name = dotted_name(base)
            if name and name.split(".")[-1].endswith(
                    ("Error", "Exception", "Warning")):
                return True
        return False

    def check(self, module: Module) -> Iterator[Finding]:
        norm = module.path.replace("\\", "/")
        if not any(norm.endswith(sfx) for sfx in HOT_MODULE_SUFFIXES):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if node.decorator_list or self._exceptionish(node):
                continue
            if self._sets_self_attrs(node) and not self._has_slots(node):
                yield self.finding(
                    module, node,
                    f"class '{node.name}' is allocated on a bench hot "
                    "path but has no __slots__")


@register
class FloatAccumulationRule(Rule):
    """PERF102: repeated ``+=`` float accumulation in a loop.

    A ``total = 0.0`` accumulator grown with ``+=`` in a loop loses
    precision order-dependently; where the codebase needs exact sums it
    uses ``math.fsum`` (and the order-dependence is exactly what DET004
    polices for sets). Advisory: plain running totals are often fine.
    """

    id = "PERF102"
    severity = Severity.ADVISORY
    title = "float += accumulation in loop"
    rationale = "math.fsum is exact and order-independent for float sums"
    scopes = ("src",)

    def check(self, module: Module) -> Iterator[Finding]:
        for func in iter_functions(module.tree):
            float_accs: Set[str] = set()
            for stmt in statements_in_order(func):
                if isinstance(stmt, ast.Assign) and \
                        len(stmt.targets) == 1 and \
                        isinstance(stmt.targets[0], ast.Name) and \
                        isinstance(stmt.value, ast.Constant) and \
                        isinstance(stmt.value.value, float) and \
                        stmt.value.value == 0.0:
                    float_accs.add(stmt.targets[0].id)
            if not float_accs:
                continue
            reported: Set[int] = set()  # id() of AST node, not of a value
            for loop in ast.walk(func):
                if not isinstance(loop, (ast.For, ast.While)):
                    continue
                for node in ast.walk(loop):
                    if isinstance(node, ast.AugAssign) and \
                            isinstance(node.op, ast.Add) and \
                            isinstance(node.target, ast.Name) and \
                            node.target.id in float_accs and \
                            id(node) not in reported:
                        reported.add(id(node))
                        yield self.finding(
                            module, node,
                            f"float accumulator '{node.target.id}' grown "
                            "with += in a loop; consider math.fsum over "
                            "the collected terms")


@register
class ListHeadShiftRule(Rule):
    """PERF103: ``list.pop(0)`` / ``list.insert(0, …)`` on a hot path.

    Removing or inserting at a list's head shifts every remaining
    element — O(n) per call, O(n²) when it hides inside a drain loop.
    The scale-regime kernels (DESIGN.md §10) exist precisely because
    such costs are invisible at 16 jobs and dominate at 4096; prefer
    ``collections.deque`` (``popleft``/``appendleft``), an index cursor
    into the list, or the repo's ``QueueSet``/heap structures. Only
    fires in the bench-kernel hot modules: a head-pop on a three-element
    config list elsewhere is fine. Advisory — receiver types are not
    inferred, so waive true non-lists inline with a reason.
    """

    id = "PERF103"
    severity = Severity.ADVISORY
    title = "O(n) list head pop/insert on hot path"
    rationale = ("pop(0)/insert(0, ...) shift the whole list; deque or "
                 "an index cursor is O(1)")
    scopes = ("src",)

    @staticmethod
    def _is_zero(node: ast.expr) -> bool:
        return (isinstance(node, ast.Constant)
                and node.value == 0 and not isinstance(node.value, bool))

    def check(self, module: Module) -> Iterator[Finding]:
        norm = module.path.replace("\\", "/")
        if not any(norm.endswith(sfx) for sfx in HOT_MODULE_SUFFIXES):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call) or \
                    not isinstance(node.func, ast.Attribute) or \
                    node.keywords:
                continue
            attr = node.func.attr
            # dict.pop(0, default) takes two args; one exact-zero arg is
            # the list head-pop shape.
            if attr == "pop" and len(node.args) == 1 and \
                    self._is_zero(node.args[0]):
                what = "pop(0)"
            elif attr == "insert" and len(node.args) == 2 and \
                    self._is_zero(node.args[0]):
                what = "insert(0, ...)"
            else:
                continue
            yield self.finding(
                module, node,
                f"{what} shifts every element on a bench hot path; "
                "use collections.deque or an index cursor")


@register
class TimerChurnRule(Rule):
    """PERF104: callback-list scans and never-cancelled timer races.

    Two shapes of event-queue garbage (DESIGN.md §15):

    - ``X.callbacks.remove(cb)`` outside ``sim/`` — a linear scan of a
      possibly thousands-long callback list; the kernel's O(1)
      ``Event.attach``/``detach`` slot handles exist for exactly this.
    - A local ``t = <engine>.timeout(...)`` that gets a callback
      attached (``t.callbacks.append``/``t.attach``) but is neither
      yielded, cancelled, nor stored anywhere — the expiry-race shape:
      when the raced operation wins, the timer stays in the event queue
      as a corpse until it fires. Keep a handle and ``cancel()`` it.

    Conservative-for-silence: a timer that escapes the function (stored
    into an attribute/container, passed to a call, returned or yielded)
    is assumed to be cancelled by whoever holds it. Timers that always
    fire by design (pure delays) take no callback and are never flagged;
    waive the rare always-fires callback timer inline with a reason.
    """

    id = "PERF104"
    severity = Severity.ADVISORY
    title = "timer-churn hazard (callback scan / uncancelled race timer)"
    rationale = ("dead timers and linear callback scans make the event "
                 "queue linear in garbage; cancel raced timers and use "
                 "attach/detach slots")
    scopes = ("src",)

    @staticmethod
    def _local_name(node: ast.expr) -> str:
        return node.id if isinstance(node, ast.Name) else ""

    def _scan_remove(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) and \
                    isinstance(node.func, ast.Attribute) and \
                    node.func.attr == "remove" and \
                    isinstance(node.func.value, ast.Attribute) and \
                    node.func.value.attr == "callbacks":
                yield self.finding(
                    module, node,
                    "callbacks.remove() scans the whole callback list; "
                    "use the O(1) Event.attach/detach slot handles")

    def _scan_races(self, module: Module,
                    func: ast.AST) -> Iterator[Finding]:
        timers: dict = {}    # name -> Assign node of the timeout
        attached: set = set()
        escaped: set = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                value = node.value
                if isinstance(target, ast.Name) and \
                        isinstance(value, ast.Call) and \
                        isinstance(value.func, ast.Attribute) and \
                        value.func.attr == "timeout":
                    timers[target.id] = node
                    continue
                # Re-assignment into an attribute/subscript: the timer
                # escapes to state someone else can cancel.
                if isinstance(target, (ast.Attribute, ast.Subscript)):
                    escaped.add(self._local_name(node.value))
            elif isinstance(node, ast.Call):
                fn = node.func
                if isinstance(fn, ast.Attribute):
                    owner = fn.value
                    if fn.attr == "append" and \
                            isinstance(owner, ast.Attribute) and \
                            owner.attr == "callbacks":
                        attached.add(self._local_name(owner.value))
                        continue
                    if fn.attr == "attach":
                        attached.add(self._local_name(owner))
                        continue
                    if fn.attr == "cancel":
                        escaped.add(self._local_name(owner))
                        continue
                # Passed as a call argument (all_of, helper, ...): the
                # callee may keep a cancellable handle.
                for arg in list(node.args) + [kw.value
                                              for kw in node.keywords]:
                    escaped.add(self._local_name(arg))
            elif isinstance(node, (ast.Return, ast.Yield, ast.YieldFrom)):
                value = getattr(node, "value", None)
                if value is not None:
                    escaped.add(self._local_name(value))
            elif isinstance(node, (ast.List, ast.Tuple, ast.Set)):
                for elt in node.elts:
                    escaped.add(self._local_name(elt))
            elif isinstance(node, ast.Dict):
                for elt in node.values:
                    escaped.add(self._local_name(elt))
        for name, assign in timers.items():
            if name in attached and name not in escaped:
                yield self.finding(
                    module, assign,
                    f"timer '{name}' gets a callback but is never "
                    "cancelled, yielded, or stored; if it races another "
                    "completion it stays in the event queue as a corpse "
                    "- keep a handle and cancel() the loser")

    def check(self, module: Module) -> Iterator[Finding]:
        norm = module.path.replace("\\", "/")
        in_sim = "/sim/" in norm or norm.startswith("sim/")
        if not in_sim:
            yield from self._scan_remove(module)
        seen: set = set()  # nested defs are walked twice; dedupe by site
        for func in iter_functions(module.tree):
            for f in self._scan_races(module, func):
                key = (f.line, f.col)
                if key not in seen:
                    seen.add(key)
                    yield f
