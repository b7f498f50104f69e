"""SIM-class rules: DES-safety hazards in simulation processes."""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Tuple

from ..core import Finding, Module, Rule, Severity, register
from ._util import dotted_name, is_generator, iter_functions, \
    statements_in_order

__all__ = ["BlockingCallRule", "YieldRaceRule", "MutableDefaultRule",
           "WorkerBoundaryRule"]


@register
class BlockingCallRule(Rule):
    """SIM001: host-blocking calls inside simulation code.

    A DES process waits by yielding ``engine.timeout(...)``;
    ``time.sleep`` stalls the whole interpreter and advances *no*
    simulated time. Interactive input is equally out of place.
    """

    id = "SIM001"
    severity = Severity.ERROR
    title = "host-blocking call in sim code"
    rationale = "processes wait by yielding events, never by blocking the host"
    scopes = ("src",)

    _BANNED = ("time.sleep", "os.system")
    _BANNED_BARE = {"sleep", "input"}

    def check(self, module: Module) -> Iterator[Finding]:
        from_time = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name == "sleep":
                        from_time.add(alias.asname or alias.name)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            banned = any(name == b or name.endswith("." + b)
                         for b in self._BANNED)
            banned = banned or name in from_time or name == "input"
            if banned:
                yield self.finding(
                    module, node,
                    f"blocking call '{name}' stalls the host; yield "
                    "engine.timeout(delay) instead")


@register
class YieldRaceRule(Rule):
    """SIM002: lost-update writes across a simulated wait.

    Heuristic over generator (process) functions: a local captured from
    shared attribute state *before* a ``yield`` and written back to the
    same attribute *after* one is the classic DES lost update — another
    process may run during the wait and its update is overwritten. Safe
    code re-reads after resuming or holds the owning lock (waive with a
    reason naming the lock).
    """

    id = "SIM002"
    severity = Severity.WARNING
    title = "stale write-back across a yield"
    rationale = ("state read before a wait and written after it loses "
                 "concurrent updates; re-read or hold the owning lock")
    scopes = ("src",)

    def check(self, module: Module) -> Iterator[Finding]:
        for func in iter_functions(module.tree):
            if not is_generator(func):
                continue
            yield from self._check_generator(module, func)

    def _stmt_yields(self, stmt: ast.stmt) -> bool:
        for node in ast.walk(stmt):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            if isinstance(node, (ast.Yield, ast.YieldFrom)):
                return True
        return False

    def _check_generator(self, module: Module,
                         func: ast.AST) -> Iterator[Finding]:
        # local name -> (attribute path it captured, epoch of the capture)
        captured: Dict[str, Tuple[str, int]] = {}
        epoch = 0
        for stmt in statements_in_order(func):
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                # Write-back: obj.attr = <expr using a stale local>
                if isinstance(target, ast.Attribute):
                    path = dotted_name(target)
                    if path is not None:
                        stale = self._stale_local(stmt.value, captured,
                                                  path, epoch)
                        if stale is not None:
                            yield self.finding(
                                module, stmt,
                                f"'{path}' is written from local "
                                f"'{stale}' captured before a yield; a "
                                "concurrent process may have updated it "
                                "during the wait (lost update)")
                # Capture: local = obj.attr
                elif isinstance(target, ast.Name):
                    if isinstance(stmt.value, ast.Attribute):
                        path = dotted_name(stmt.value)
                        if path is not None:
                            captured[target.id] = (path, epoch)
                        else:
                            captured.pop(target.id, None)
                    else:
                        captured.pop(target.id, None)
            if self._stmt_yields(stmt):
                epoch += 1

    def _stale_local(self, value: ast.AST,
                     captured: Dict[str, Tuple[str, int]],
                     path: str, epoch: int) -> Optional[str]:
        """Name of a local in *value* captured from *path* before a yield."""
        for node in ast.walk(value):
            if isinstance(node, ast.Name) and node.id in captured:
                src_path, src_epoch = captured[node.id]
                if src_path == path and src_epoch < epoch:
                    return node.id
        return None


@register
class MutableDefaultRule(Rule):
    """SIM003: mutable default arguments.

    A mutable default is shared by every call; in engine-registered
    classes that silently couples independent processes through one
    list or dict.
    """

    id = "SIM003"
    severity = Severity.ERROR
    title = "mutable default argument"
    rationale = "defaults are evaluated once and shared across all calls"
    scopes = ("src", "tests")

    _MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict",
                      "deque"}

    def _is_mutable(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                             ast.DictComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            return name is not None and \
                name.split(".")[-1] in self._MUTABLE_CALLS
        return False

    def check(self, module: Module) -> Iterator[Finding]:
        for func in iter_functions(module.tree):
            defaults: List[ast.AST] = list(func.args.defaults)
            defaults.extend(d for d in func.args.kw_defaults
                            if d is not None)
            for default in defaults:
                if self._is_mutable(default):
                    yield self.finding(
                        module, default,
                        f"mutable default in '{func.name}()'; use None and "
                        "construct inside the body")


@register
class WorkerBoundaryRule(Rule):
    """SIM004: unsafe worker boundary for parallel fan-out.

    A forked worker duplicates live interpreter state — engine clocks,
    RNG registries, open journal handles — so a point computed in the
    child can silently diverge from the same point computed serially.
    Sim-safe fan-out (the sweep runner's contract) uses the ``spawn``
    start method so each worker re-imports the code and rebuilds its
    world from the point config alone, and passes a *top-level* worker
    function that spawn can re-import by qualified name. This rule
    flags the three ways code steps outside that contract: forking
    (``os.fork``, a non-spawn ``get_context``/``set_start_method``),
    platform-default ``multiprocessing.Pool``/``Process`` construction,
    and lambda or ``self``-bound workers handed to pool fan-out calls.
    """

    id = "SIM004"
    severity = Severity.ERROR
    title = "unsafe parallel worker boundary"
    rationale = ("fork duplicates live sim state; use spawn and top-level "
                 "worker functions so children rebuild from the config")
    scopes = ("src",)

    #: Pool fan-out methods whose worker argument must be picklable by
    #: qualified name (plain ``.map`` is left out: too many non-pool
    #: objects expose it).
    _POOL_METHODS = {"imap", "imap_unordered", "map_async", "apply_async",
                     "starmap", "starmap_async"}
    #: Constructors that silently take the platform-default start method
    #: (fork on Linux).
    _DEFAULT_CTX = {"multiprocessing.Pool", "multiprocessing.Process",
                    "multiprocessing.pool.Pool"}

    def _mp_aliases(self, module: Module) -> Dict[str, str]:
        """Local name -> multiprocessing symbol, for from-imports."""
        aliases: Dict[str, str] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module is not None \
                    and node.module.split(".")[0] == "multiprocessing":
                for alias in node.names:
                    aliases[alias.asname or alias.name] = alias.name
        return aliases

    def _start_method_arg(self, node: ast.Call) -> Optional[str]:
        """The constant start-method argument, '' if absent, None if
        dynamic (not a string literal)."""
        args = list(node.args) + [kw.value for kw in node.keywords
                                  if kw.arg == "method"]
        if not args:
            return ""
        first = args[0]
        if isinstance(first, ast.Constant) and \
                isinstance(first.value, str):
            return first.value
        return None

    def check(self, module: Module) -> Iterator[Finding]:
        aliases = self._mp_aliases(module)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            symbol = aliases.get(name, name)
            if symbol == "os.fork":
                yield self.finding(
                    module, node,
                    "os.fork() duplicates live sim state (engine clocks, "
                    "RNG registries); use spawn-based fan-out")
            elif symbol in ("multiprocessing.get_context", "get_context",
                            "multiprocessing.set_start_method",
                            "set_start_method"):
                method = self._start_method_arg(node)
                if method != "spawn":
                    shown = "platform default" if method == "" else \
                        (method or "a dynamic value")
                    yield self.finding(
                        module, node,
                        f"start method is {shown!r}; only 'spawn' "
                        "re-imports workers instead of forking live sim "
                        "state")
            elif symbol in self._DEFAULT_CTX or \
                    (name in aliases and aliases[name] in ("Pool",
                                                           "Process")):
                yield self.finding(
                    module, node,
                    f"'{name}' uses the platform-default start method "
                    "(fork on Linux); construct it from "
                    "get_context('spawn')")
            elif name.rpartition(".")[2] in self._POOL_METHODS and \
                    node.args:
                worker = node.args[0]
                if isinstance(worker, ast.Lambda):
                    yield self.finding(
                        module, node,
                        "lambda worker cannot be re-imported by a spawned "
                        "child; use a top-level function")
                elif isinstance(worker, ast.Attribute) and \
                        isinstance(worker.value, ast.Name) and \
                        worker.value.id == "self":
                    yield self.finding(
                        module, node,
                        "bound-method worker drags its instance (live sim "
                        "state) across the process boundary; use a "
                        "top-level function")
