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

from typing import Dict, Optional, Sequence, Set

import numpy as np

from .jobinfo import JobStatusTable

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
    Counts projection *requests* and actual *solves*."""

    BOUND = 8

    def __init__(self) -> None:
        self.requests = 0
        self.solves = 0
        self._rows: Dict[tuple, Dict[str, Dict[int, float]]] = {}

    def __len__(self) -> int:
        return len(self._rows)


def placement_shares(presence: Dict[str, Set[int]],
                     global_shares: Dict[int, float],
                     iterations: int = 100, tol: float = 1e-9,
                     memo: Optional[PlacementMemo] = None,
                     ) -> Dict[str, Dict[int, float]]:
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
    ``BOUND`` distinct ones without solving; the caller owns the rows.
    """
    if memo is None:
        return _solve_placement(presence, global_shares, iterations, tol)
    memo.requests += 1
    key = (tuple(sorted((s, frozenset(j)) for s, j in presence.items())),
           tuple(sorted(global_shares.items())), iterations, tol)
    rows = memo._rows.get(key)
    if rows is None:
        memo.solves += 1
        rows = _solve_placement(presence, global_shares, iterations, tol)
        if len(memo._rows) >= memo.BOUND:
            del memo._rows[next(iter(memo._rows))]
        memo._rows[key] = rows
    return {server: dict(row) for server, row in rows.items()}


def _solve_placement(presence, global_shares, iterations: int,
                     tol: float) -> Dict[str, Dict[int, float]]:
    """The RAS projection behind :func:`placement_shares`."""
    servers = sorted(presence)
    jobs = sorted(global_shares)
    rows: Dict[str, Dict[int, float]] = {s: {} for s in servers}
    if not servers or not jobs:
        return rows
    index = {j: k for k, j in enumerate(jobs)}
    A = np.zeros((len(servers), len(jobs)))
    for row, server in enumerate(servers):
        for job_id in presence[server]:
            col = index.get(job_id)
            if col is not None and global_shares[job_id] > 0:
                A[row, col] = global_shares[job_id]
    targets = np.array([global_shares[j] for j in jobs]) * len(servers)
    row_bound = tol + _RTOL
    col_bound = tol + _RTOL * np.abs(targets)
    # One row and one column reduction per sweep: the row sums the check
    # reads are the next sweep's (and the final renormalisation's)
    # divisors; the check's own column sums are taken once the rows pass.
    row_sums = A.sum(axis=1, keepdims=True)
    scale = np.empty_like(targets)
    for _ in range(iterations):
        np.divide(A, row_sums, out=A, where=row_sums > 0)
        col_sums = A.sum(axis=0)
        live = col_sums > 0
        scale.fill(1.0)
        np.divide(targets, col_sums, out=scale, where=live)
        np.multiply(A, scale, out=A)
        row_sums = A.sum(axis=1, keepdims=True)
        if ((row_sums > 0) & ~(np.abs(row_sums - 1.0) <= row_bound)).any():
            continue
        if not (live & ~(np.abs(A.sum(axis=0) - targets) <= col_bound)).any():
            break
    # Leave each server with a proper distribution.
    np.divide(A, row_sums, out=A, where=row_sums > 0)
    hit_rows, hit_cols = np.nonzero(A > 0)
    for r, c, share in zip(hit_rows.tolist(), hit_cols.tolist(),
                           A[hit_rows, hit_cols].tolist()):
        rows[servers[r]][jobs[c]] = share
    return rows


def total_variation(a: Dict[int, float], b: Dict[int, float]) -> float:
    """Total-variation distance between two share maps (0 = identical,
    1 = disjoint). Missing keys count as zero share."""
    keys = sorted(set(a) | set(b))
    return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)


def global_share_error(local_shares: Sequence[Dict[int, float]],
                       global_shares: Dict[int, float]) -> float:
    """Worst-server deviation from the globally fair assignment.

    The Fig. 14 experiment tracks how quickly this drops to ~0 after
    ThemisIO starts in an unfair state; it cannot exceed 1.
    """
    if not local_shares:
        return 0.0
    return max(total_variation(local, global_shares) for local in local_shares)
