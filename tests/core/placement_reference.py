"""Reference oracle: ``placement_shares`` as the dense S x J numpy RAS
(iterative proportional fitting) whose limit it computes, swept until a
doubled budget of sweeps moves no cell by more than ``MOVE``.

Each sweep rescales the rows to 1, then the columns to their
entitlement ``share x n_servers``; the answer is read after a final row
rescale, as ``repro.core.fairness.placement_shares`` reads its limit.
Where the sweeps do not settle within ``LIMIT`` (a set of jobs entitled
to exactly its servers, or all but exactly: the cells it squeezes out
shrink like 1 / sweeps), the oracle returns None and has no answer.
Not a test module.
"""

import numpy as np

#: the largest move of any cell, over a doubled budget, that counts as
#: settled.
MOVE = 1e-9

#: the sweep budget at which the oracle gives up.
LIMIT = 1 << 14


def _dense(presence, global_shares):
    servers = sorted(presence)
    jobs = sorted(global_shares)
    index = {j: k for k, j in enumerate(jobs)}
    A = np.zeros((len(servers), len(jobs)))
    for row, server in enumerate(servers):
        for job_id in sorted(presence[server]):
            col = index.get(job_id)
            if col is not None and global_shares[job_id] > 0:
                A[row, col] = global_shares[job_id]
    targets = np.array([global_shares[j] for j in jobs]) * len(servers)
    return servers, jobs, A, targets


def _sweep(A, targets, count):
    for _ in range(count):
        row_sums = A.sum(axis=1, keepdims=True)
        A = np.divide(A, row_sums, out=A, where=row_sums > 0)
        col_sums = A.sum(axis=0)
        A = A * np.divide(targets, col_sums, out=np.ones_like(targets),
                          where=col_sums > 0)
    return A


def _rows(A):
    row_sums = A.sum(axis=1, keepdims=True)
    return np.divide(A, row_sums, out=np.zeros_like(A), where=row_sums > 0)


def reference_placement_shares(presence, global_shares, start=64):
    """The settled rows as ``{server: {job: cell}}`` (cells above 0
    only), or None if ``LIMIT`` sweeps do not settle them."""
    servers, jobs, A, targets = _dense(presence, global_shares)
    if not servers or not jobs:
        return {s: {} for s in servers}
    budget = start
    A = _sweep(A, targets, budget)
    before = _rows(A)
    while budget < LIMIT:
        A = _sweep(A, targets, budget)
        budget *= 2
        after = _rows(A)
        if np.max(np.abs(after - before)) <= MOVE:
            return {server: {jobs[c]: float(after[r, c])
                             for c in range(len(jobs)) if after[r, c] > 0}
                    for r, server in enumerate(servers)}
        before = after
    return None
