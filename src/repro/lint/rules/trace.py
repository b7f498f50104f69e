"""TRACE-class rules: statically checked trace-neutrality of toggles.

The repo's perf toggles (``set_sync_delta_enabled`` and friends) all
promise the same contract: flipping the toggle changes wire accounting
or CPU cost, never the simulated event trace. Until now that promise
was only a test-suite property (seed-equivalence tests per toggle);
these rules make the *reachability* half of it static. A declared
registry of trace-bearing state (scheduler queues, the DES heap, job
tables, FS metadata) is checked against every toggle guard: the
enabled-only branch must not reach — directly or through the call
graph — a mutation of registered state that the disabled branch cannot
also reach. The skip direction (enabled path provably does *less*, like
the hash-skip short-circuit) is intentionally allowed: doing strictly
fewer redundant writes is how these toggles earn their keep.

TRACE102 guards the toggle mechanism itself: the module-global flags
are only trustworthy while their one blessed ``set_*`` setter is the
only writer.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set

from ..core import Finding, ProjectRule, Severity, register
from ..graph import FunctionSummary, ProjectIndex, ToggleGuard

__all__ = ["TRACE_STATE", "ToggleReachesTraceStateRule",
           "ToggleWrittenOutsideSetterRule"]

#: The declared registry of trace-bearing attributes: state whose
#: content or mutation order is (or feeds) the event trace. Matching is
#: by attribute name, project-wide — names here must stay specific
#: enough not to collide with scratch state (see DESIGN.md §14).
TRACE_STATE: Dict[str, str] = {
    # DES substrate (sim/engine.py): the event heap IS the trace.
    "_heap": "DES event heap",
    "_now": "simulated clock",
    "_seq": "event sequence counter",
    # Scheduler queueing state (core/scheduler.py QueueSet).
    "_queues": "per-job request queues",
    "_sorted_jobs": "scheduler job ordering",
    "_total_cost": "queued-cost aggregate",
    "_job_cost": "per-job queued cost",
    "membership_version": "queue-membership version counter",
    # Job/status tables (bb/monitor.py, core/jobinfo.py).
    "_entries": "job status table entries",
    "_active_ids": "job status table active-id index",
    "local_jobs": "job monitor local-job set",
    "_client_job": "client-to-job mapping",
    "_job_clients": "per-job client count",
    # FS metadata (fs/filesystem.py StorageNode).
    "inodes": "storage-node inode table",
    "paths": "storage-node path namespace",
    # Controller sync state that feeds token allocation.
    "presence": "cluster presence map",
}


def _module_of(fn: FunctionSummary) -> str:
    return fn.qualname.split(":", 1)[0]


@register
class ToggleReachesTraceStateRule(ProjectRule):
    """TRACE101: a toggle-guarded branch mutates trace-bearing state
    the off-path cannot reach.

    Each guard's enabled-only suite is closed over the call graph; any
    mutation of a :data:`TRACE_STATE` attribute in that closure must
    also appear in the disabled path's closure, otherwise flipping the
    toggle changes simulation state — the definition of a
    trace-neutrality bug. Unresolvable calls contribute nothing, so
    dynamic dispatch degrades to silence, not noise.
    """

    id = "TRACE101"
    severity = Severity.ERROR
    title = "toggle-guarded branch mutates trace-bearing state"
    rationale = ("perf toggles must be trace-neutral: the enabled path "
                 "may skip work, never do state-changing work the "
                 "disabled path doesn't")

    def _closure_mutations(self, index: ProjectIndex,
                           fn: FunctionSummary, calls: List[str],
                           direct: List[str]) -> Set[str]:
        """Registered attrs mutated by *direct* writes or any function
        reachable from *calls*."""
        mutated = {attr for attr in direct if attr in TRACE_STATE}
        roots = index.resolve_exprs(fn, calls)
        for qual in sorted(index.reachable(roots)):
            for attr in index.functions[qual].mutations:
                if attr in TRACE_STATE:
                    mutated.add(attr)
        return mutated

    def _check_guard(self, index: ProjectIndex, fn: FunctionSummary,
                     guard: ToggleGuard) -> Iterator[Finding]:
        on = self._closure_mutations(index, fn, guard.on_calls,
                                     guard.on_mutations)
        if not on:
            return
        off = self._closure_mutations(index, fn, guard.off_calls,
                                      guard.off_mutations)
        escaped = sorted(on - off)
        if not escaped:
            return
        toggle = index.resolve_toggle(fn, guard.toggle)
        label = toggle.name if toggle is not None else guard.toggle
        detail = ", ".join(
            f"'{attr}' ({TRACE_STATE[attr]})" for attr in escaped)
        yield self.at(
            index.files[_module_of(fn)].path, guard.line, guard.col,
            f"branch guarded by toggle '{label}' reaches a mutation of "
            f"trace-bearing state {detail} that the disabled path "
            "cannot; this breaks the same-seed => same-trace contract")

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        for qual in sorted(index.functions):
            fn = index.functions[qual]
            for guard in fn.guards:
                yield from self._check_guard(index, fn, guard)


@register
class ToggleWrittenOutsideSetterRule(ProjectRule):
    """TRACE102: a toggle flag is rebound outside its ``set_*`` setter.

    The trace-neutrality argument for each toggle assumes one audited
    write path. A second ``global _X_ENABLED`` writer (a test helper
    that leaked into src, a module that flips a peer's toggle) silently
    widens the surface TRACE101 reasons about.
    """

    id = "TRACE102"
    severity = Severity.WARNING
    title = "toggle flag written outside its setter"
    rationale = ("each _X_ENABLED flag must have exactly one blessed "
                 "set_* writer for the neutrality audit to hold")

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        for key in sorted(index.toggles):
            flag = index.toggles[key]
            summary = index.files.get(flag.module)
            if summary is None:
                continue
            for qual in sorted(summary.functions):
                fn = summary.functions[qual]
                if flag.name not in fn.global_writes:
                    continue
                if fn.name.startswith("set_") and fn.cls is None:
                    continue
                yield self.at(
                    summary.path, fn.line, fn.col,
                    f"function '{fn.name}' rebinds toggle flag "
                    f"'{flag.name}' but is not its set_* setter; route "
                    "all writes through the blessed setter")
