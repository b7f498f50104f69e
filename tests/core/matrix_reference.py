"""Reference oracle: Eq. 1 as the paper writes it, a dense product of
transition matrices (§3).

    prod_{i=0}^{N-1} T^i        (Eq. 1)

``T^i`` is the transition matrix of sharing-entity level *i*: each row
is a token queue (an entity scope of level *i-1*), each column an
entity of level *i*, and entry ``T[j, k]`` is entity *k*'s fair share
**within its local scope**. Consequently each row sums to one and each
column has exactly one non-zero entry (an entity belongs to exactly one
parent scope). The product collapses the hierarchy into a single row
vector of per-job shares of [0, 1] — the statistical tokens of Fig. 3.
``repro.core.matrix.ShareChain`` evaluates the same shares in closed
form and must equal this product bit for bit when the weight totals are
exact (integer sizes), and within rounding for fractional priorities.
Not a test module.
"""

from operator import attrgetter
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.jobinfo import JobInfo
from repro.core.matrix import _level_readers
from repro.errors import PolicyError

_JOB_ID = attrgetter("job_id")


# ------------------------------------------------------------ level builders
def _head_matrix(parent_scopes: Sequence[tuple],
                 parent_rows: Dict[tuple, int],
                 child_scopes: Sequence[tuple],
                 depth: int) -> np.ndarray:
    """One non-terminal level: even split within each parent scope."""
    T = np.zeros((len(parent_scopes), len(child_scopes)))
    for col, child in enumerate(child_scopes):
        T[parent_rows[child[:depth]], col] = 1.0  # placeholder; normalised
    row_counts = T.sum(axis=1, keepdims=True)
    return np.divide(T, row_counts, out=np.zeros_like(T),
                     where=row_counts > 0)


def _terminal_matrix(parent_scopes: Sequence[tuple],
                     parent_rows: Dict[tuple, int],
                     job_scopes: Sequence[tuple],
                     weights: Sequence[float]) -> np.ndarray:
    """The terminal level: columns are jobs, weighted by the tail rule."""
    T = np.zeros((len(parent_scopes), len(job_scopes)))
    for col, scope in enumerate(job_scopes):
        T[parent_rows[scope], col] = weights[col]
    row_sums = T.sum(axis=1, keepdims=True)
    return np.divide(T, row_sums, out=np.zeros_like(T), where=row_sums > 0)


def _by_id(jobs: Sequence[JobInfo]) -> Tuple[List[JobInfo], List[int]]:
    """*jobs* in ascending id order and their (distinct) ids."""
    jobs = sorted(jobs, key=_JOB_ID)
    job_ids = list(map(_JOB_ID, jobs))
    if len(set(job_ids)) != len(job_ids):
        raise PolicyError(f"duplicate job ids: {job_ids}")
    return jobs, job_ids


def _scope_chain(getters: Sequence[Callable],
                 jobs: Sequence[JobInfo]) -> List[List[tuple]]:
    """Per-depth scope key of each (already sorted) job, by level getter.

    ``chain[d][i]`` is job *i*'s scope after consuming the first *d*
    levels; depth 0 is the virtual root ``()``.
    """
    per_job: List[tuple] = [()] * len(jobs)
    chain = [per_job]
    for getter in getters:
        per_job = [scope + (getter(job),)
                   for scope, job in zip(per_job, jobs)]
        chain.append(per_job)
    return chain


def build_transition_matrices(
        levels: Sequence,
        jobs: Sequence[JobInfo]) -> Tuple[List[np.ndarray], List[int]]:
    """Build the ``T^i`` chain for *levels* over *jobs*.

    Returns ``(matrices, job_ids)`` where the final matrix's columns are
    ordered by ``job_ids`` (ascending). Jobs must have distinct ids.
    """
    jobs, job_ids = _by_id(jobs)
    if not jobs:
        return [], []

    getters, weight = _level_readers(levels)
    scope_chain = _scope_chain(getters, jobs)
    matrices: List[np.ndarray] = []
    parent_scopes: List[tuple] = [()]  # the virtual root
    parent_rows: Dict[tuple, int] = {(): 0}
    for depth in range(len(levels) - 1):
        child_scopes = sorted(set(scope_chain[depth + 1]))
        matrices.append(_head_matrix(parent_scopes, parent_rows,
                                     child_scopes, depth))
        parent_scopes = child_scopes
        parent_rows = {scope: i for i, scope in enumerate(child_scopes)}

    weights = list(map(weight, jobs))
    matrices.append(_terminal_matrix(parent_scopes, parent_rows,
                                     scope_chain[-1], weights))
    return matrices, job_ids


def validate_transition_matrix(T: np.ndarray, atol: float = 1e-9) -> None:
    """Check the §3 structural constraints; raise PolicyError if violated."""
    if T.ndim != 2:
        raise PolicyError(f"transition matrix must be 2-D, got shape {T.shape}")
    row_sums = T.sum(axis=1)
    if not np.allclose(row_sums, 1.0, atol=atol):
        raise PolicyError(f"rows must sum to 1, got {row_sums}")
    if np.any(T < -atol):
        raise PolicyError("negative entries in transition matrix")
    nonzero_per_col = (T > atol).sum(axis=0)
    if np.any(nonzero_per_col != 1):
        raise PolicyError(
            f"each column must have exactly one non-zero entry, got "
            f"{nonzero_per_col}")


def chain_product(matrices: Sequence[np.ndarray]) -> np.ndarray:
    """Evaluate Eq. 1: the ordered product of the transition matrices."""
    if not matrices:
        return np.zeros((1, 0))
    out = matrices[0]
    for T in matrices[1:]:
        out = out @ T
    return out
