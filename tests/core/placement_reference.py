"""Reference oracle: ``placement_shares`` as the dense S x J numpy RAS it
first was (5 reductions and 2 ``np.allclose`` per sweep, Python double
loop for the rows) — the only dense solver left in the tree.
``repro.core.fairness.placement_shares`` solves the same projection over
host-set classes and must return the same servers, the same job keys per
row and every cell within 1e-12 relative of this one's. Not a test
module.
"""

import numpy as np


def reference_placement_shares(presence, global_shares,
                               iterations=100, tol=1e-9):
    servers = sorted(presence)
    jobs = sorted(global_shares)
    if not servers or not jobs:
        return {s: {} for s in servers}
    index = {j: k for k, j in enumerate(jobs)}
    A = np.zeros((len(servers), len(jobs)))
    for row, server in enumerate(servers):
        for job_id in presence[server]:
            col = index.get(job_id)
            if col is not None and global_shares[job_id] > 0:
                A[row, col] = global_shares[job_id]
    targets = np.array([global_shares[j] for j in jobs]) * len(servers)
    for _ in range(iterations):
        row_sums = A.sum(axis=1, keepdims=True)
        A = np.divide(A, row_sums, out=A, where=row_sums > 0)
        col_sums = A.sum(axis=0)
        scale = np.divide(targets, col_sums,
                          out=np.ones_like(targets), where=col_sums > 0)
        A = A * scale
        if (np.allclose(A.sum(axis=1)[A.sum(axis=1) > 0], 1.0, atol=tol)
                and np.allclose(A.sum(axis=0)[col_sums > 0],
                                targets[col_sums > 0], atol=tol)):
            break
    row_sums = A.sum(axis=1, keepdims=True)
    A = np.divide(A, row_sums, out=A, where=row_sums > 0)
    return {
        server: {jobs[c]: float(A[r, c]) for c in range(len(jobs))
                 if A[r, c] > 0}
        for r, server in enumerate(servers)
    }
