"""λ-delayed global fairness helpers (§3.1).

With files on disjoint servers, each server initially has only local job
information and its token assignment is globally unfair (Fig. 5).
Controllers "perform an all-gather on the job status table every λ time
interval", bounding how long a globally unfair state can last.

The messaging lives in the burst-buffer controller
(:mod:`repro.bb.controller`); this module holds the pure pieces: the
all-gather merge over snapshots and the projection of the global shares
onto each server's token map (Fig. 5). The λ-sweep experiment (Fig. 14)
judges convergence on the realised share timeline
(:func:`repro.metrics.convergence_interval`), not on these shares.
"""

from __future__ import annotations

import math
from itertools import compress, repeat
from operator import lt, mul
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from .jobinfo import JobStatusTable
from .tokens import ordered_sum

__all__ = ["all_gather_merge", "placement_shares", "PlacementMemo"]


def all_gather_merge(tables: Sequence[JobStatusTable]) -> bool:
    """Synchronise *tables* as an all-gather: every table absorbs every
    other table's snapshot (newest heartbeat wins). Returns True if any
    table's active set changed.

    Snapshots are taken before merging, so the result is order-independent
    — exactly what a collective exchange gives each controller.
    """
    snapshots = [table.snapshot() for table in tables]
    changed = False
    for i, table in enumerate(tables):
        for k, snapshot in enumerate(snapshots):
            if i != k:
                changed |= table.merge(snapshot)
    return changed


class PlacementMemo:
    """Bounded content-keyed memo of :func:`placement_shares` results,
    owned by one cluster: its N controllers hold the same merged table
    after a scatter and would otherwise each solve the same projection.
    Every requester is handed the same read-only rows. Counts projection
    *requests* and actual *solves*."""

    BOUND = 8

    def __init__(self) -> None:
        self.requests = 0
        self.solves = 0
        self._rows: Dict[tuple, Mapping[str, Mapping[int, float]]] = {}

    def __len__(self) -> int:
        return len(self._rows)


def placement_shares(presence: Dict[str, Set[int]],
                     global_shares: Dict[int, float], tol: float = 1e-9,
                     memo: Optional[PlacementMemo] = None,
                     ) -> Mapping[str, Mapping[int, float]]:
    """Per-server token assignments honouring global shares under
    placement constraints (the Fig. 5 adjustment).

    A job can only consume cycles on servers that host its files. Given
    which jobs each server hosts (*presence*) and the policy's global
    shares, find per-server segment maps such that each server's
    segments sum to 1 and each job's total across servers matches its
    global entitlement (``share x n_servers`` server-units). The answer
    is the limit that iterative proportional fitting (RAS: rescale the
    rows to server capacity, then the columns to entitlement, and again)
    tends to from the shares, read after a row step. It is computed, not
    swept (:func:`_solve_placement`):

    1. each connected component of the job-server graph fills its own
       servers, its entitlements scaled alike to fit them, so a server
       that hosts no job with a positive share counts for nothing;
    2. the densest set of jobs (entitlement per server hosting any of
       them) takes all of its servers when that density is at least the
       component's: each of its entitlements is divided by its density,
       and the other jobs are solved again on the servers left (the
       limit Pukelsheim, Ann. Oper. Res. 2014, gives for RAS with
       marginals no matrix meets);
    3. in a block that remains, every cell the marginals force is set:
       a server left with one job gives it all it has left, and a job
       left with one server takes all it is still owed there;
    4. a cyclic core left after that is fitted by RAS until each job's
       total is within *tol* of what it is owed.

    So a feasible entitlement is met, and an infeasible one is met in
    proportion, block by block. For Fig. 5's example — job 1 (16 nodes)
    on both servers, jobs 2 and 3 (8 nodes each) on one server each,
    size-fair — step 3 alone yields exactly the paper's adjustment:
    job 1's token drops from 0.66 to 0.5 on both servers.

    A *memo* answers an input equal in content to one of its last
    ``BOUND`` distinct ones without solving. Its rows are shared by
    every requester and therefore read-only (mutation raises
    ``TypeError``); without a memo the caller owns plain dicts.
    """
    if memo is None:
        return _solve_placement(presence, global_shares, tol)
    memo.requests += 1
    key = (tuple(sorted((s, frozenset(j)) for s, j in presence.items())),
           tuple(sorted(global_shares.items())), tol)
    rows = memo._rows.get(key)
    if rows is None:
        memo.solves += 1
        solved = _solve_placement(presence, global_shares, tol)
        rows = MappingProxyType({server: MappingProxyType(row)
                                 for server, row in solved.items()})
        if len(memo._rows) >= memo.BOUND:
            del memo._rows[next(iter(memo._rows))]
        memo._rows[key] = rows
    return rows


#: A placement sub-problem: host-set class -> the rows (server indices)
#: it may use, classes in ascending order.
Hosts = Dict[int, Tuple[int, ...]]


def _solve_placement(presence, global_shares,
                     tol: float) -> Dict[str, Dict[int, float]]:
    """The projection behind :func:`placement_shares`, solved over
    host-set classes.

    Every job hosted by the same set of servers is scaled by the same
    factors in every RAS step, so the S x J problem is an S x K problem
    over the K distinct host sets: a class weighs the sum of its
    members' shares, and a member's cell is ``share / weight`` of the
    class cell. :func:`_fill` solves the class cells.
    """
    servers = sorted(presence)
    rows: Dict[str, Dict[int, float]] = {s: {} for s in servers}
    # Split the positive-share jobs server by server into classes of
    # equal host set: (members, host rows) pairs.
    split = [(set(compress(global_shares, map(lt, repeat(0.0),
                                              global_shares.values()))), ())]
    for r, server in enumerate(servers):
        hosted = presence[server]
        parts = []
        for jobs, rs in split:
            inside = jobs & hosted
            if inside:
                parts.append((inside, rs + (r,)))
                if len(inside) < len(jobs):
                    parts.append((jobs - inside, rs))
            else:
                parts.append((jobs, rs))
        split = parts
    # Classes ordered by their smallest member, the unhosted one dropped.
    found = sorted((sorted(jobs), rs) for jobs, rs in split if rs)
    if not found:
        return rows
    classes = [rs for _, rs in found]
    members = [jobs for jobs, _ in found]
    member_shares = [list(map(global_shares.__getitem__, jobs))
                     for jobs in members]
    weights = [ordered_sum(shares) for shares in member_shares]
    cells: Dict[Tuple[int, int], float] = {}
    _fill(dict(enumerate(classes)), weights, tol, cells)
    row_sums = [0.0] * len(servers)
    for (r, _), value in cells.items():
        row_sums[r] += value
    # Leave each server with a proper distribution; a member's cell is
    # its ``share / weight`` of the class cell. Products of positive
    # floats keep their order, so when the smallest member's cell is
    # positive every member's is.
    for k, rs in enumerate(classes):
        jobs, shares = members[k], member_shares[k]
        least = min(shares)
        for r in rs:
            cell = cells.get((r, k))
            if not cell:
                continue
            unit = cell / row_sums[r] / weights[k]
            pairs = zip(jobs, map(mul, shares, repeat(unit)))
            if not least * unit > 0.0:
                pairs = [(j, v) for j, v in pairs if v > 0.0]
            rows[servers[r]].update(pairs)
    return rows


def _fill(hosts: Hosts, weights: List[float], tol: float,
          cells: Dict[Tuple[int, int], float]) -> None:
    """Set the ``(row, class)`` *cells* of the classes in *hosts*, steps
    1-4 of :func:`placement_shares`, component by component."""
    for part in _components(hosts):
        if len(part) == 1:
            # One class: every row of it is its alone (all a block
            # split leaves on a two-server input).
            for k, rs in part.items():
                for r in rs:
                    cells[r, k] = 1.0
            continue
        rows = {r for rs in part.values() for r in rs}
        scale = len(rows) / ordered_sum([weights[k] for k in part])
        targets = {k: weights[k] * scale for k in part}
        forced, core, row_left, col_left = _peel(part, targets)
        # A forest's forced cells are all positive exactly when no set
        # of its classes is as dense as the whole; otherwise ask.
        if core or min(forced.values()) <= 0.0:
            block = _dense_block(part, weights)
            if block is not None:
                # The block fills its rows; the rest is solved without.
                inside = set(block)
                taken = {r for k in block for r in part[k]}
                _fill({k: part[k] for k in block}, weights, tol, cells)
                rest = {k: tuple(r for r in rs if r not in taken)
                        for k, rs in part.items() if k not in inside}
                _fill({k: rs for k, rs in rest.items() if rs},
                      weights, tol, cells)
                continue
            if core:
                forced.update(_fit(core, row_left, col_left, tol))
        for cell, value in forced.items():
            cells[cell] = max(value, 0.0)


def _on_row(hosts: Hosts) -> Dict[int, List[int]]:
    """Row -> the classes of *hosts* that use it, in class order."""
    on_row: Dict[int, List[int]] = {}
    for k, rs in hosts.items():
        for r in rs:
            on_row.setdefault(r, []).append(k)
    return on_row


def _components(hosts: Hosts) -> List[Hosts]:
    """*hosts* split into the connected components of its class-row
    graph, each in class order."""
    if len(hosts) == 1:
        return [hosts]
    on_row = _on_row(hosts)
    seen: Set[int] = set()
    parts = []
    for first in hosts:
        if first in seen:
            continue
        seen.add(first)
        stack, part = [first], []
        while stack:
            k = stack.pop()
            part.append(k)
            for r in hosts[k]:
                for other in on_row.pop(r, ()):
                    if other not in seen:
                        seen.add(other)
                        stack.append(other)
        part.sort()
        parts.append({k: hosts[k] for k in part})
    return parts


def _peel(hosts: Hosts, targets: Dict[int, float]):
    """Set every cell the marginals force (step 3): while a row has one
    class left it gives that class what the row has left (of 1), and
    while a class has one row left it puts there what it is still owed
    (of its target). Returns the set cells, the cyclic core left (as
    class -> rows; empty for a forest) and the row and class residuals."""
    left = {k: list(rs) for k, rs in hosts.items()}
    on_row = _on_row(hosts)
    row_left = dict.fromkeys(on_row, 1.0)
    col_left = dict(targets)
    leaves = [(True, r) for r, ks in on_row.items() if len(ks) == 1]
    leaves += [(False, k) for k, rs in left.items() if len(rs) == 1]
    forced: Dict[Tuple[int, int], float] = {}
    while leaves:
        is_row, node = leaves.pop()
        if is_row:
            if len(on_row[node]) != 1:
                continue
            r, k = node, on_row[node][0]
            value = row_left[r]
        else:
            if len(left[node]) != 1:
                continue
            r, k = left[node][0], node
            value = col_left[k]
        forced[r, k] = value
        row_left[r] -= value
        col_left[k] -= value
        left[k].remove(r)
        on_row[r].remove(k)
        if len(left[k]) == 1:
            leaves.append((False, k))
        if len(on_row[r]) == 1:
            leaves.append((True, r))
    core = {k: tuple(rs) for k, rs in left.items() if rs}
    return forced, core, row_left, col_left


def _fit(core: Hosts, row_left: Dict[int, float],
         col_left: Dict[int, float], tol: float
         ) -> Dict[Tuple[int, int], float]:
    """RAS on a cyclic *core* (step 4), from equal cells to the residual
    marginals, the class residuals scaled to the rows' total. A row or
    class that rounding left with nothing gets no cell. Stops after the
    row step that leaves the classes' absolute errors summing to at most
    *tol*, or to no less than the step before (rounding)."""
    edges = [(r, k) for k, rs in core.items() if col_left[k] > 0
             for r in rs if row_left[r] > 0]
    if not edges:
        return {}
    rows = sorted({r for r, _ in edges})
    ks = sorted({k for _, k in edges})
    scale = (ordered_sum([row_left[r] for r in rows])
             / ordered_sum([col_left[k] for k in ks]))
    want = {k: col_left[k] * scale for k in ks}
    cells = [1.0] * len(edges)
    error = math.inf
    while True:
        sums = dict.fromkeys(rows, 0.0)
        for (r, _), value in zip(edges, cells):
            sums[r] += value
        cells = [value * row_left[r] / sums[r]
                 for (r, _), value in zip(edges, cells)]
        cols = dict.fromkeys(ks, 0.0)
        for (_, k), value in zip(edges, cells):
            cols[k] += value
        last, error = error, ordered_sum([abs(cols[k] - want[k])
                                          for k in ks])
        if error <= tol or error >= last:
            return dict(zip(edges, cells))
        cells = [value * want[k] / cols[k]
                 for (_, k), value in zip(edges, cells)]


def _dense_block(hosts: Hosts, weights: List[float]) -> Optional[List[int]]:
    """The classes of one connected component that must take all of
    their rows (step 2), or None when every proper subset of classes is
    less dense than the component. Decided exactly: the weights are
    dyadic, so over a common denominator they are integers, and each
    test is a max-flow with integer capacities (:func:`_route`).

    If every class's weight x rows can be routed onto the rows at the
    component's weight each, no set is denser; one is as dense (to
    within 2^-40, so that a tie rounding broke still counts) exactly
    when a proper part of the flow graph is closed
    (:func:`_closed_part`). Otherwise the classes a leftover can reach
    form a denser set, and Dinkelbach's iteration raises the density to
    theirs until no set is denser."""
    ratios = [weights[k].as_integer_ratio() for k in hosts]
    den = max([d for _, d in ratios])
    need = {k: n * (den // d) for k, (n, d) in zip(hosts, ratios)}
    block = list(hosts)
    first = True
    while True:
        rows = {r for k in block for r in hosts[k]}
        room = ordered_sum([need[k] for k in block])
        flow, short = _route(hosts, {k: need[k] * len(rows) for k in hosts},
                             room)
        if short is None:
            return _closed_part(hosts, flow, room >> 40) if first else block
        block, first = short, False


def _route(hosts: Hosts, need: Dict[int, int], room: int):
    """Max-flow of each class's *need* onto its rows, each row holding
    *room*: a greedy fill, then shortest augmenting paths from every
    class with need left. Returns ``(flow, short)``: *flow* maps a class
    to ``{row: amount}``; *short* is None when every need is routed, and
    otherwise the classes a leftover can reach (a minimum cut's side)."""
    on_row = _on_row(hosts)
    free = dict.fromkeys(on_row, room)
    left = dict(need)
    flow: Dict[int, Dict[int, int]] = {k: {} for k in hosts}
    for k, rs in hosts.items():
        for r in rs:
            amount = min(left[k], free[r])
            if amount:
                flow[k][r] = amount
                left[k] -= amount
                free[r] -= amount
    while True:
        starts = [k for k in hosts if left[k]]
        if not starts:
            return flow, None
        via: Dict[int, Optional[int]] = dict.fromkeys(starts)
        by: Dict[int, int] = {}
        queue, end = starts, None
        for k in queue:
            for r in hosts[k]:
                if r in by:
                    continue
                by[r] = k
                if free[r]:
                    end = r
                    break
                for other in on_row[r]:
                    if other not in via and flow[other].get(r):
                        via[other] = r
                        queue.append(other)
            if end is not None:
                break
        if end is None:
            return flow, [k for k in hosts if k in via]
        # Walk back from the free row to the start: each class on the
        # path moves flow from the row it was reached through to the
        # next row along.
        amount, r = free[end], end
        path = []
        while True:
            k = by[r]
            path.append((k, r))
            back = via[k]
            if back is None:
                amount = min(amount, left[k])
                break
            amount = min(amount, flow[k][back])
            r = back
        free[end] -= amount
        left[path[-1][0]] -= amount
        for k, r in path:
            flow[k][r] = flow[k].get(r, 0) + amount
            back = via[k]
            if back is not None:
                flow[k][back] -= amount


def _closed_part(hosts: Hosts, flow: Dict[int, Dict[int, int]],
                 small: int) -> Optional[List[int]]:
    """With every row full and every class routed, the classes of a
    proper part of the graph (class -> its rows, row -> the classes
    routed onto it by more than *small*) that no edge leaves, or None if
    the graph is strongly connected. Such a part's classes use exactly
    its rows, and fill all of them but what the classes outside route
    there, at most *small* per edge: it is as dense as the component to
    within that."""
    on_row = _on_row(hosts)
    first = next(iter(hosts))
    # Forward: everything the first class reaches.
    seen = {first}
    stack = [first]
    while stack:
        k = stack.pop()
        for r in hosts[k]:
            for other in on_row[r]:
                if other not in seen and flow[other].get(r, 0) > small:
                    seen.add(other)
                    stack.append(other)
    if len(seen) < len(hosts):
        return [k for k in hosts if k in seen]
    # Backward: everything that reaches the first class; the rest is
    # closed.
    seen = {first}
    stack = [first]
    while stack:
        k = stack.pop()
        for r, amount in flow[k].items():
            if amount > small:
                for other in on_row[r]:
                    if other not in seen:
                        seen.add(other)
                        stack.append(other)
    if len(seen) < len(hosts):
        return [k for k in hosts if k not in seen]
    return None
