"""PROTO-class rules: RPC message-vocabulary conformance.

The cluster's RPC surface is stringly typed: a sender builds
``{"kind": "push", ...}`` and a handler three modules away matches
``elif kind == "push":`` — nothing but convention keeps the two in
sync. These rules extract both halves of the vocabulary from the
:class:`~repro.lint.graph.ProjectIndex` (send sites through one-hop
builder helpers and ``kind=`` parameter indirection; handler branches
with their payload reads, direct and via the call graph) and flag the
three drift modes: a kind sent that no handler matches, a handler for a
kind nothing sends, and a payload key a handler requires that no send
site of that kind provides.

Kindless sends (the client's ``io`` request bodies; λ-sync speaks only
``pull``/``push`` and its dispatcher raises on anything else) are
matched against the ``else`` arm of dispatchers that demonstrably share
an RPC op with the kinds they *do* name; a dispatcher whose ops cannot
be linked to any send is left alone. All checks go silent rather than guess when a kind
or body is dynamic.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

from ..core import Finding, ProjectRule, Severity, register
from ..graph import (DispatchBranch, FunctionSummary, ProjectIndex,
                     SendSite)

__all__ = ["SentButUnhandledRule", "HandledButNeverSentRule",
           "PayloadKeyMismatchRule"]

#: sentinel kinds resolved_sends() emits for unresolvable bodies.
_OPAQUE = ("<dynamic>", "<unknown>")

_Send = Tuple[FunctionSummary, SendSite, List[str]]


class _ProtocolModel:
    """Both halves of the RPC vocabulary, resolved project-wide."""

    def __init__(self, index: ProjectIndex) -> None:
        self.index = index
        #: kind -> send sites carrying it (with their payload-key union)
        self.by_kind: Dict[str, List[_Send]] = {}
        #: kindless sends (no ``kind`` key in the body at all)
        self.kindless: List[_Send] = []
        #: True when some send's kind could not be resolved to constants
        self.has_dynamic_kind = False
        for fn, site, kinds, keys in index.resolved_sends():
            entry = (fn, site, keys)
            if not kinds:
                self.kindless.append(entry)
                continue
            for kind in kinds:
                if kind in _OPAQUE:
                    self.has_dynamic_kind = True
                else:
                    self.by_kind.setdefault(kind, []).append(entry)
        self.dispatches: List[Tuple[FunctionSummary, DispatchBranch]] = \
            index.dispatchers()
        self.handled_kinds: Set[str] = {
            branch.kind for _, branch in self.dispatches
            if branch.kind is not None}

    @classmethod
    def of(cls, index: ProjectIndex) -> "_ProtocolModel":
        model = index.memo.get("proto_model")
        if not isinstance(model, cls):
            model = cls(index)
            index.memo["proto_model"] = model
        return model

    # -- handler-side key requirements ------------------------------------
    def branch_required(self, fn: FunctionSummary,
                        branch: DispatchBranch) -> List[str]:
        """Payload keys *branch* requires: its own subscript reads, the
        reads of every function reachable from its calls, and the
        dispatcher's pre-branch (common) reads."""
        required = list(branch.required)
        roots = self.index.resolve_exprs(fn, branch.calls)
        for qual in sorted(self.index.reachable(roots)):
            for key in self.index.functions[qual].body_required:
                if key not in required:
                    required.append(key)
        for key in self.dispatcher_common_required(fn):
            if key not in required:
                required.append(key)
        return required

    def dispatcher_common_required(self,
                                   fn: FunctionSummary) -> List[str]:
        """Keys *fn* reads by subscript outside any dispatch branch."""
        branch_reads: Set[str] = set()
        for branch in fn.dispatches:
            branch_reads.update(branch.required)
            branch_reads.update(branch.optional)
        return [key for key in fn.body_required if key not in branch_reads]

    def dispatcher_ops(self, fn: FunctionSummary) -> Set[str]:
        """RPC ops evidenced to route to dispatcher *fn*: the ops of
        every send site whose kind *fn* names a branch for."""
        ops: Set[str] = set()
        for branch in fn.dispatches:
            if branch.kind is None:
                continue
            for _, site, _ in self.by_kind.get(branch.kind, []):
                ops.add(site.op)
        return ops

    def sent_keys(self, sends: List[_Send]) -> Set[str]:
        """Union of payload keys over *sends* (conservative: a key any
        variant of the message can carry is considered provided)."""
        keys: Set[str] = set()
        for _, site, site_keys in sends:
            keys.update(site_keys)
        return keys


def _site_list(sends: List[_Send], limit: int = 3) -> str:
    locs = sorted({f"{fn.qualname.split(':', 1)[0]}:{site.line}"
                   for fn, site, _ in sends})
    shown = ", ".join(locs[:limit])
    if len(locs) > limit:
        shown += f", +{len(locs) - limit} more"
    return shown


@register
class SentButUnhandledRule(ProjectRule):
    """PROTO101: an RPC kind is sent but no dispatcher matches it.

    The message crosses the wire and falls into the receiver's ``else``
    (or error) arm: the sender's state machine believes work happened
    that never did. This is exactly how a renamed tree-sync kind or a
    deleted handler branch fails — silently, N servers at a time.
    """

    id = "PROTO101"
    severity = Severity.ERROR
    title = "RPC kind sent but never handled"
    rationale = ("every kind= a sender emits must be matched by some "
                 "dispatcher branch, or the message is silently dropped")

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        model = _ProtocolModel.of(index)
        if not model.handled_kinds:
            # No kind dispatcher resolved anywhere (e.g. table-driven
            # dispatch the extractor cannot see): stay silent rather
            # than flag the whole send surface.
            return
        for kind in sorted(model.by_kind):
            if kind in model.handled_kinds:
                continue
            for fn, site, _ in model.by_kind[kind]:
                module = fn.qualname.split(":", 1)[0]
                yield self.at(
                    index.files[module].path, site.line, site.col,
                    f"RPC kind '{kind}' (op '{site.op}') is sent here but "
                    "no dispatcher branch handles it; the receiver will "
                    "drop it on the floor")


@register
class HandledButNeverSentRule(ProjectRule):
    """PROTO102: a dispatcher branch matches a kind nothing sends.

    Dead protocol arms are how payload-key drift hides: the handler
    keeps compiling against a message shape that stopped existing. A
    handler kept for wire compatibility can carry a waiver saying so.
    """

    id = "PROTO102"
    severity = Severity.WARNING
    title = "RPC kind handled but never sent"
    rationale = ("a dispatch branch no send site targets is dead protocol "
                 "surface and hides payload drift")

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        model = _ProtocolModel.of(index)
        if model.has_dynamic_kind:
            # Some send's kind is only known at runtime; it could target
            # any branch, so "never sent" cannot be proven.
            return
        for fn, branch in model.dispatches:
            if branch.kind is None or branch.kind in model.by_kind:
                continue
            module = fn.qualname.split(":", 1)[0]
            yield self.at(
                index.files[module].path, branch.line, branch.col,
                f"dispatcher branch for RPC kind '{branch.kind}' is dead: "
                "no send site in the project produces this kind")


@register
class PayloadKeyMismatchRule(ProjectRule):
    """PROTO103: a handler requires a payload key no send site provides.

    A handler's ``body["key"]`` is a prophecy of KeyError: it must hold
    for every message variant of that kind. Keys are collected through
    the handler's reachable callees and compared against the *union* of
    keys across the kind's send sites, so optional-by-design fields
    provided by any variant never false-positive.
    """

    id = "PROTO103"
    severity = Severity.ERROR
    title = "handler requires payload key no sender provides"
    rationale = ("body[\"k\"] in a handler must be satisfied by every "
                 "send site of that kind, or the merge dies mid-protocol")

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        model = _ProtocolModel.of(index)
        for fn, branch in model.dispatches:
            module = fn.qualname.split(":", 1)[0]
            path = index.files[module].path
            if branch.kind is not None:
                sends = model.by_kind.get(branch.kind, [])
                if not sends:
                    continue          # PROTO102's finding, not ours
                label = f"kind '{branch.kind}'"
            else:
                ops = model.dispatcher_ops(fn)
                sends = [entry for entry in model.kindless
                         if entry[1].op in ops]
                if not sends:
                    continue          # no kindless traffic routes here
                label = "kindless sends"
            provided = model.sent_keys(sends)
            for key in model.branch_required(fn, branch):
                if key == "kind" and branch.kind is None:
                    continue      # the else-arm often logs the kind
                if key not in provided:
                    yield self.at(
                        path, branch.line, branch.col,
                        f"handler branch for {label} requires payload key "
                        f"'{key}' that no matching send site provides "
                        f"(sends at {_site_list(sends)})")
