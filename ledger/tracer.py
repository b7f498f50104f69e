"""Layer tracer: where one ``Engine.run`` spends its host time.

Installed with ``sys.setprofile`` around the timed call. A *layer* is a
package of ``src/repro`` (``sim``, ``net``, ``ucx``, ``bb``, ``core``,
``fs``, ``metrics``, ``faults``, ``workloads``); the ledger's own load
generators count as ``workloads``. Code outside those packages (numpy,
scipy, heapq, builtins, ``repro.errors`` / ``repro.units``) is charged
to the layer that called it.

Every Python call that crosses from one layer into another opens a span
``(layer, callee, start, end, parent)``. A layer's self time is the
duration of its spans minus the child spans they cover, so the self
times add up to the traced wall. Spans are aggregated in memory per
``(layer, callee)``; the first :data:`KEEP_SPANS` are also kept whole
for a Chrome-trace export.
"""

from __future__ import annotations

import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["LAYERS", "KEEP_SPANS", "LayerTracer"]

LAYERS = ("sim", "net", "ucx", "bb", "core", "fs", "metrics", "faults",
          "workloads")
KEEP_SPANS = 50_000

_SEP = os.sep
_REPRO = f"{_SEP}repro{_SEP}"
_LEDGER = os.path.dirname(os.path.abspath(__file__)) + _SEP


def _layer_of(filename: str) -> Optional[str]:
    """The layer owning code in *filename*, or None (charge the caller)."""
    if filename.startswith(_LEDGER):
        return "workloads"
    _, sep, tail = filename.rpartition(_REPRO)
    if sep and _SEP in tail:
        package = tail.split(_SEP, 1)[0]
        if package in LAYERS:
            return package
    return None


class LayerTracer:
    """Collects layer self times and cross-layer spans for one call."""

    def __init__(self) -> None:
        #: layer -> self seconds.
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        #: (layer, callee) -> [span count, total seconds].
        self.spans: Dict[Tuple[str, str], List[float]] = {}
        #: first KEEP_SPANS spans: (layer, callee, start, end, parent index).
        self.kept: List[Tuple[str, str, float, float, int]] = []
        self.wall_s = 0.0

    def run(self, fn: Callable[[], Any]) -> Any:
        """Call *fn* under the profiler; returns its result."""
        clock = time.perf_counter
        self_s = self.self_s
        spans = self.spans
        kept = self.kept
        layer_cache: Dict[Any, Optional[str]] = {}
        missing = object()
        # One entry per live Python frame: None when the frame stayed in
        # its caller's layer, else the open span's state.
        stack: List[Optional[tuple]] = []
        cur: Optional[str] = None       # layer being charged right now
        last = 0.0                      # when `cur` started being charged
        open_span = -1                  # index in `kept` of the open span

        def profile(frame, event, arg):
            nonlocal cur, last, open_span
            if event == "call":
                code = frame.f_code
                layer = layer_cache.get(code, missing)
                if layer is missing:
                    layer = layer_cache[code] = _layer_of(code.co_filename)
                if layer is None or layer == cur:
                    stack.append(None)
                    return
                now = clock()
                if cur is not None:
                    self_s[cur] += now - last
                last = now
                slot = -1
                if len(kept) < KEEP_SPANS:
                    slot = len(kept)
                    kept.append((layer, code.co_qualname, now, now,
                                 open_span))
                stack.append((cur, code.co_qualname, now, slot, open_span))
                if slot >= 0:
                    open_span = slot
                cur = layer
            elif event == "return":
                if not stack:
                    return
                entry = stack.pop()
                if entry is None:
                    return
                now = clock()
                self_s[cur] += now - last
                last = now
                prev, callee, start, slot, parent = entry
                agg = spans.get((cur, callee))
                if agg is None:
                    spans[(cur, callee)] = [1, now - start]
                else:
                    agg[0] += 1
                    agg[1] += now - start
                if slot >= 0:
                    kept[slot] = (cur, callee, start, now, parent)
                    open_span = parent
                cur = prev

        begin = clock()
        sys.setprofile(profile)
        try:
            return fn()
        finally:
            sys.setprofile(None)
            self.wall_s = clock() - begin

    # ---------------------------------------------------------------- reads
    def fractions(self) -> Dict[str, float]:
        """Each layer's share of the attributed time (sums to 1)."""
        total = sum(self.self_s.values())
        return {layer: (s / total if total else 0.0)
                for layer, s in self.self_s.items()}

    def calls(self, layer: str, *callees: str) -> int:
        """Spans opened at the named entry points of *layer*."""
        return int(sum(self.spans.get((layer, c), (0, 0.0))[0]
                       for c in callees))

    def top_spans(self, n: int = 40) -> List[dict]:
        """The *n* span kinds with the largest total duration."""
        ranked = sorted(self.spans.items(), key=lambda kv: -kv[1][1])[:n]
        return [{"layer": layer, "callee": callee, "count": int(agg[0]),
                 "total_s": agg[1]} for (layer, callee), agg in ranked]

    def chrome_trace(self) -> dict:
        """The kept spans as Chrome-trace ("X" complete) events."""
        if not self.kept:
            return {"traceEvents": []}
        origin = self.kept[0][2]
        return {"traceEvents": [
            {"name": callee, "cat": layer, "ph": "X", "pid": 1,
             "tid": LAYERS.index(layer) + 1,
             "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
             "args": {"span": i, "parent": parent}}
            for i, (layer, callee, start, end, parent)
            in enumerate(self.kept)]}
