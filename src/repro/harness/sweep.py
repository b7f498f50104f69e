"""Declarative sweeps: spec expansion, caching, and parallel fan-out.

A sweep is a declarative grid — a base config plus per-axis value lists
— expanded into fully-resolved *points*. Each point is keyed into the
content-addressed :class:`~repro.harness.workspace.Workspace`;
:class:`ParallelRunner` partitions the points into cache hits (read
back from the store) and misses (computed, optionally fanned out over
``multiprocessing`` workers) and returns every result in spec order.

Determinism: serial == parallel == replay
-----------------------------------------
The bit-identity contract (same seed ⇒ same trace, DESIGN.md §9) holds
across all three execution modes because points share nothing:

1. **No shared sim state.** Every point function builds its own
   cluster/scheduler world from its config; all randomness flows from
   the config's seed through that world's own ``RngRegistry``. Nothing
   simulated lives at module scope, so there is no state a fork could
   duplicate or a worker could race on (``repro.lint`` rule SIM004
   polices the worker boundary).
2. **Order-independent assembly.** Workers return ``(key, result)``
   pairs in completion order; the runner reassembles them by key into
   the deterministic spec order, so ``imap_unordered`` scheduling noise
   never reaches the results document.
3. **Canonical persistence.** Results are stored and digested as
   canonical JSON, so a cache replay returns byte-identical documents.

Workers use the ``spawn`` start method: each child imports a fresh
interpreter instead of inheriting the parent's (possibly warmed)
module state, which keeps worker behaviour identical to a
fresh serial process.
"""

from __future__ import annotations

import json
import math
import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ReproError
from .workspace import Workspace, code_rev, content_digest, point_key

__all__ = ["SweepSpec", "PointOutcome", "SweepRun", "ParallelRunner",
           "BUILTIN_GRIDS", "load_spec", "resolve_point_kind", "run_point"]


def resolve_point_kind(kind: str) -> Callable[[Dict[str, Any]],
                                              Dict[str, Any]]:
    """The point function registered under *kind*.

    The registry is the figure table (``experiments.POINT_KINDS``),
    imported here rather than at module scope because that module runs
    its figures through this one; spawned pool workers re-import it and
    see the same mapping.
    """
    from .experiments import POINT_KINDS
    try:
        return POINT_KINDS[kind]
    except KeyError:
        raise ReproError(
            f"unknown point kind {kind!r}; known: "
            f"{', '.join(sorted(POINT_KINDS))}") from None


def run_point(kind: str, config: Dict[str, Any]) -> Dict[str, Any]:
    """Compute one point: resolve *kind* and call it on a config copy."""
    fn = resolve_point_kind(kind)
    return fn(dict(config))


def _pool_worker(task: Tuple[str, str, Dict[str, Any]]
                 ) -> Tuple[str, Dict[str, Any], float]:
    """Top-level worker body: ``(key, kind, config) -> (key, result,
    wall_s)``.

    Must stay a module-level function — ``spawn`` workers import it by
    qualified name; closures and bound methods cannot cross the process
    boundary (and would drag parent state with them if they could).
    """
    key, kind, config = task
    t0 = time.perf_counter()
    result = run_point(kind, config)
    return key, result, time.perf_counter() - t0


# ===================================================================== spec
@dataclass
class SweepSpec:
    """A declarative sweep: base config x axis grid.

    ``points()`` expands the cartesian product deterministically: axis
    names in sorted order, each axis's values in listed order.
    """

    name: str
    kind: str
    base: Dict[str, Any] = field(default_factory=dict)
    axes: Dict[str, List[Any]] = field(default_factory=dict)

    def points(self) -> List[Dict[str, Any]]:
        """The fully-resolved point configs, in deterministic order."""
        configs = [dict(self.base)]
        for axis in sorted(self.axes):
            values = self.axes[axis]
            if not isinstance(values, (list, tuple)) or not values:
                raise ReproError(
                    f"sweep {self.name!r}: axis {axis!r} must be a "
                    "non-empty list of values")
            configs = [dict(config, **{axis: value})
                       for config in configs for value in values]
        return configs


def spec_from_doc(doc: Dict[str, Any]) -> SweepSpec:
    """Build a :class:`SweepSpec` from a parsed JSON document."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise ReproError("sweep spec must be a JSON object with a 'kind'")
    unknown = sorted(set(doc) - {"name", "kind", "base", "axes"})
    if unknown:
        raise ReproError(f"sweep spec has unknown keys: {unknown}")
    return SweepSpec(
        name=str(doc.get("name", "unnamed")),
        kind=str(doc["kind"]),
        base=dict(doc.get("base", {})),
        axes={str(k): list(v) for k, v in dict(doc.get("axes", {})).items()})


def load_spec(path: str) -> SweepSpec:
    """Load a sweep spec from a JSON file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ReproError(f"cannot read sweep spec {path!r}: {exc}") from exc
    return spec_from_doc(doc)


#: The one named grid that is not a figure (``repro sweep --grid`` also
#: takes every figure name): 8 short two-job sharing runs, the
#: cold/warm timing grid EXPERIMENTS.md reports on.
BUILTIN_GRIDS: Dict[str, SweepSpec] = {
    "quick": SweepSpec(
        name="quick", kind="sharing",
        base={"nodes1": 4, "scale": 0.05, "n_servers": 1},
        axes={"policy": ["job-fair", "size-fair"],
              "seed": [0, 1],
              "nodes2": [1, 2]}),
}


# ==================================================================== runner
@dataclass
class PointOutcome:
    """One expanded point after a run: its key, result, and provenance."""

    key: str
    kind: str
    config: Dict[str, Any]
    result: Dict[str, Any]
    cached: bool
    wall_s: float


@dataclass
class SweepRun:
    """Everything one :class:`ParallelRunner` invocation produced."""

    points: List[PointOutcome]
    rev: str
    jobs: int
    wall_s: float

    @property
    def hits(self) -> int:
        """Points served from the workspace store."""
        return sum(1 for p in self.points if p.cached)

    @property
    def misses(self) -> int:
        """Points that had to be computed this run."""
        return len(self.points) - self.hits

    @property
    def hit_rate(self) -> float:
        """Fraction of points served from the store (0 when empty)."""
        return self.hits / len(self.points) if self.points else 0.0

    def serial_estimate_s(self) -> float:
        """Estimated serial wall-clock: the sum of every point's compute
        time (cache hits contribute the wall recorded when they were
        first computed)."""
        return math.fsum(p.wall_s for p in self.points)

    def speedup(self) -> float:
        """Serial-estimate / actual wall — the combined caching +
        parallelism win of this run (1.0 = no faster than serial)."""
        if self.wall_s <= 0:
            return 0.0
        return self.serial_estimate_s() / self.wall_s

    def results_doc(self) -> Dict[str, Any]:
        """The canonical results document: every point's kind, config
        and result in spec order. Pure content — no timings, hostnames,
        store keys, or hit/miss provenance — so serial, parallel, and
        replayed runs of the same spec produce byte-identical documents
        (store keys are rev-scoped and would needlessly split the
        digest across revisions of identical results)."""
        return {"points": [{"kind": p.kind, "config": p.config,
                            "result": p.result}
                           for p in self.points]}

    def rows(self) -> List[Dict[str, Any]]:
        """Every point's config merged with its result, in spec order —
        what a figure's ``report`` and shape checks read."""
        return [dict(p.config, **p.result) for p in self.points]

    def digest(self) -> str:
        """Content digest of :meth:`results_doc` (stable across serial,
        parallel and replayed passes)."""
        return content_digest(self.results_doc())

    def to_summary(self) -> Dict[str, Any]:
        """JSON-able run summary (``repro sweep --json``)."""
        return {
            "rev": self.rev,
            "jobs": self.jobs,
            "points": len(self.points),
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
            "wall_s": round(self.wall_s, 6),
            "serial_estimate_s": round(self.serial_estimate_s(), 6),
            "speedup": round(self.speedup(), 2),
            "digest": self.digest(),
        }

    def summary(self) -> str:
        """Human-readable hits/misses/speedup table."""
        lines = [
            f"points {len(self.points)}  hits {self.hits}  "
            f"misses {self.misses}  hit-rate {self.hit_rate:.0%}",
            f"wall {self.wall_s:.2f}s  serial-estimate "
            f"{self.serial_estimate_s():.2f}s  speedup "
            f"{self.speedup():.2f}x  (jobs={self.jobs})",
            f"digest {self.digest()}  rev {self.rev}",
        ]
        return "\n".join(lines)


class ParallelRunner:
    """Expands sweeps into points, consults the workspace, fans out.

    With ``jobs <= 1`` (or a single pending point) misses are computed
    in-process; otherwise they are distributed over a ``spawn`` pool of
    ``min(jobs, misses)`` workers. Either way the returned
    :class:`SweepRun` lists outcomes in spec order, and — because points
    are self-contained and seeds are derived purely (module docstring) —
    with results bit-identical across the two modes.
    """

    def __init__(self, workspace: Optional[Workspace] = None, jobs: int = 1,
                 rev: Optional[str] = None):
        self.workspace = workspace
        self.jobs = max(1, int(jobs))
        if rev is not None:
            self.rev = rev
        elif workspace is not None:
            self.rev = code_rev()
        else:
            # No store, so the rev only namespaces in-memory keys.
            self.rev = "local"

    def run_points(self, points: Sequence[Tuple[str, Dict[str, Any]]],
                   rerun: bool = False) -> SweepRun:
        """Run ``(kind, config)`` *points*; returns outcomes in order.

        Each point is keyed; with a workspace attached, stored results
        are cache hits (unless *rerun* first invalidates them) and fresh
        results are written back. Duplicate keys are computed once.
        """
        t_start = time.perf_counter()
        keyed: List[Tuple[str, str, Dict[str, Any]]] = []
        outcomes: Dict[str, PointOutcome] = {}
        pending: Dict[str, Tuple[str, Dict[str, Any]]] = {}
        for kind, config in points:
            resolve_point_kind(kind)  # unknown kinds fail before any runs
            key = point_key(kind, config, self.rev)
            keyed.append((key, kind, config))
            if key in outcomes or key in pending:
                continue
            blob = None
            if self.workspace is not None:
                if rerun:
                    self.workspace.discard(key)
                else:
                    blob = self.workspace.get(key)
            if blob is not None:
                outcomes[key] = PointOutcome(
                    key=key, kind=kind, config=dict(config),
                    result=blob["result"], cached=True,
                    wall_s=float(blob["meta"].get("wall_s", 0.0)))
            else:
                pending[key] = (kind, dict(config))
        if pending:
            tasks = [(key, kind, config)
                     for key, (kind, config) in pending.items()]
            if self.jobs <= 1 or len(tasks) == 1:
                raw = [_pool_worker(task) for task in tasks]
            else:
                ctx = multiprocessing.get_context("spawn")
                with ctx.Pool(processes=min(self.jobs, len(tasks))) as pool:
                    raw = list(pool.imap_unordered(_pool_worker, tasks,
                                                   chunksize=1))
            for key, result, wall in raw:
                kind, config = pending[key]
                outcomes[key] = PointOutcome(
                    key=key, kind=kind, config=config, result=result,
                    cached=False, wall_s=wall)
                if self.workspace is not None:
                    self.workspace.put(key, kind, config, result,
                                       self.rev, wall)
        ordered = [outcomes[key] for key, _kind, _config in keyed]
        return SweepRun(points=ordered, rev=self.rev, jobs=self.jobs,
                        wall_s=time.perf_counter() - t_start)
