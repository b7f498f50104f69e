"""λ-delayed global fairness helpers (§3.1).

With files on disjoint servers, each server initially has only local job
information and its token assignment is globally unfair (Fig. 5).
Controllers "perform an all-gather on the job status table every λ time
interval", bounding how long a globally unfair state can last.

The messaging lives in the burst-buffer controller
(:mod:`repro.bb.controller`); this module holds the pure pieces: the
all-gather merge over snapshots and the unfairness metric used by the
λ-sweep experiment (Fig. 14).
"""

from __future__ import annotations

from itertools import compress, repeat
from operator import lt, mul
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Sequence, Set

from .jobinfo import JobStatusTable
from .tokens import ordered_sum

__all__ = ["all_gather_merge", "total_variation", "global_share_error",
           "placement_shares", "PlacementMemo"]


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


#: relative term of the convergence check (``np.allclose``'s default).
_RTOL = 1e-5


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
                     global_shares: Dict[int, float],
                     iterations: int = 100, tol: float = 1e-9,
                     memo: Optional[PlacementMemo] = None,
                     ) -> Mapping[str, Mapping[int, float]]:
    """Per-server token assignments honouring global shares under
    placement constraints (the Fig. 5 adjustment).

    A job can only consume cycles on servers that host its files. Given
    which jobs each server hosts (*presence*) and the policy's global
    shares, find per-server segment maps such that each server's
    segments sum to 1 and each job's total across servers matches its
    global entitlement (``share x n_servers`` server-units). This is a
    transportation polytope projection, solved by iterative proportional
    fitting (RAS): alternately rescale rows to server capacity and
    columns to job entitlement, for at most *iterations* sweeps, until
    every live row and column sum ``x`` is within ``tol + _RTOL * |y|``
    of its target ``y`` (rows pass at ``tol + 1e-5``, not at *tol*).

    For Fig. 5's example — job 1 (16 nodes) on both servers, jobs 2 and
    3 (8 nodes each) on one server each, size-fair — this yields exactly
    the paper's adjustment: job 1's token drops from 0.66 to 0.5 on both
    servers. Infeasible entitlements (a job entitled to more capacity
    than its servers have) never pass the check: they always run all
    *iterations* sweeps and end at the closest feasible point.

    A *memo* answers an input equal in content to one of its last
    ``BOUND`` distinct ones without solving. Its rows are shared by
    every requester and therefore read-only (mutation raises
    ``TypeError``); without a memo the caller owns plain dicts.
    """
    if memo is None:
        return _solve_placement(presence, global_shares, iterations, tol)
    memo.requests += 1
    key = (tuple(sorted((s, frozenset(j)) for s, j in presence.items())),
           tuple(sorted(global_shares.items())), iterations, tol)
    rows = memo._rows.get(key)
    if rows is None:
        memo.solves += 1
        solved = _solve_placement(presence, global_shares, iterations, tol)
        rows = MappingProxyType({server: MappingProxyType(row)
                                 for server, row in solved.items()})
        if len(memo._rows) >= memo.BOUND:
            del memo._rows[next(iter(memo._rows))]
        memo._rows[key] = rows
    return rows


def _solve_placement(presence, global_shares, iterations: int,
                     tol: float) -> Dict[str, Dict[int, float]]:
    """The RAS projection behind :func:`placement_shares`, solved over
    host-set classes.

    Every job hosted by the same set of servers is scaled by the same
    factors in every sweep, so the S x J problem is (in exact
    arithmetic) an S x K problem over the K distinct host sets: a class
    weighs the sum of its members' shares, its column passes the check
    when its largest member's would, and a member's cell is
    ``share / weight`` of the class cell. Only the non-zero class cells
    are kept, as one flat list in column order.
    """
    servers = sorted(presence)
    rows: Dict[str, Dict[int, float]] = {s: {} for s in servers}
    # Split the positive-share jobs server by server into classes of
    # equal host set: (members, host rows) pairs.
    split = [({j for j, share in global_shares.items() if share > 0}, ())]
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
    n = len(servers)
    members = [jobs for jobs, _ in found]
    member_shares = [[global_shares[j] for j in jobs] for jobs in members]
    weights = [ordered_sum(shares) for shares in member_shares]
    targets = [w * n for w in weights]
    row_bound = tol + _RTOL
    col_bounds = [tol * w / max(shares) + _RTOL * t
                  for w, shares, t in zip(weights, member_shares, targets)]
    # (cell, row, column) of every non-zero class cell, in column order.
    index = [(c, r, k) for c, (r, k) in enumerate(
        (r, k) for k, rs in enumerate(classes) for r in rs)]
    cells = [weights[k] for _, _, k in index]
    row_sums = [0.0] * n
    for c, r, _ in index:
        row_sums[r] += cells[c]
    # One row and one column reduction per sweep: the row sums the check
    # reads are the next sweep's (and the final renormalisation's)
    # divisors; the check's own column sums are taken once the rows pass.
    for _ in range(iterations):
        if 0.0 in row_sums:
            row_sums = [s or 1.0 for s in row_sums]
        col_sums = [0.0] * len(targets)
        for c, r, k in index:
            cells[c] = v = cells[c] / row_sums[r]
            col_sums[k] += v
        scale = [t / s if s > 0 else 1.0 for t, s in zip(targets, col_sums)]
        row_sums = [0.0] * n
        for c, r, k in index:
            cells[c] = v = cells[c] * scale[k]
            row_sums[r] += v
        for s in row_sums:
            if s > 0 and not abs(s - 1.0) <= row_bound:
                break
        else:
            scaled = [0.0] * len(targets)
            for c, _, k in index:
                scaled[k] += cells[c]
            if all(abs(x - t) <= bound
                   for x, t, bound, s in zip(scaled, targets, col_bounds,
                                             col_sums) if s > 0):
                break
    # Leave each server with a proper distribution; a member's cell is
    # its ``share / weight`` of the class cell.
    for c, r, k in index:
        unit = cells[c] / (row_sums[r] or 1.0) / weights[k]
        values = list(map(mul, member_shares[k], repeat(unit)))
        rows[servers[r]].update(compress(zip(members[k], values),
                                         map(lt, repeat(0.0), values)))
    return rows


def total_variation(a: Dict[int, float], b: Dict[int, float]) -> float:
    """Total-variation distance between two share maps (0 = identical,
    1 = disjoint). Missing keys count as zero share."""
    keys = sorted(set(a) | set(b))
    return 0.5 * ordered_sum(
        abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)


def global_share_error(local_shares: Sequence[Dict[int, float]],
                       global_shares: Dict[int, float]) -> float:
    """Worst-server deviation from the globally fair assignment.

    The Fig. 14 experiment tracks how quickly this drops to ~0 after
    ThemisIO starts in an unfair state; it cannot exceed 1.
    """
    if not local_shares:
        return 0.0
    return max(total_variation(local, global_shares) for local in local_shares)
