"""Transition matrices and the Eq. 1 chain product (§3).

The statistical token assignment for a composite policy is evaluated as

    prod_{i=0}^{N-1} T^i        (Eq. 1)

where ``T^i`` is the transition matrix of sharing-entity level *i*: each
row is a token queue (an entity scope of level *i-1*), each column an
entity of level *i*, and entry ``T[j, k]`` is entity *k*'s fair share
**within its local scope**. Consequently each row sums to one and each
column has exactly one non-zero entry (an entity belongs to exactly one
parent scope). The product collapses the hierarchy into a single row
vector of per-job shares of [0, 1] — the statistical tokens of Fig. 3.
"""

from __future__ import annotations

from collections import Counter
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Dict, List, Sequence, Tuple

import numpy as np

from ..errors import PolicyError
from .jobinfo import JobInfo

if TYPE_CHECKING:  # pragma: no cover
    from .policy import Level

__all__ = ["build_transition_matrices", "chain_product", "chain_shares",
           "validate_transition_matrix"]


_JOB_ID = attrgetter("job_id")
_SIZE = attrgetter("size")
_PRIORITY = attrgetter("priority")


def _level_readers(levels: Sequence["Level"]) -> Tuple[list, Callable]:
    """One entity getter per non-terminal level and the terminal level's
    weights function (jobs to their weights, in order), resolved once per
    chain, not per job per level."""
    from .policy import Level  # policy imports this module
    entity = {Level.GROUP: attrgetter("group"),
              Level.USER: attrgetter("user")}
    weight = {Level.JOB: lambda jobs: [1.0] * len(jobs),
              Level.SIZE: lambda jobs: list(map(float, map(_SIZE, jobs))),
              Level.PRIORITY:
                  lambda jobs: list(map(float, map(_PRIORITY, jobs)))}
    *heads, tail = levels
    for level in heads:
        if level not in entity:
            raise PolicyError(f"level {level.value!r} has no entity key")
    if tail not in weight:
        raise PolicyError(f"level {tail.value!r} is not terminal")
    return [entity[level] for level in heads], weight[tail]


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
        levels: Sequence["Level"],
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

    weights = weight(jobs)
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


def chain_shares(levels: Sequence["Level"],
                 jobs: Sequence[JobInfo]) -> Dict[int, float]:
    """Per-job shares of [0, 1] for *levels* over *jobs* (sums to 1).

    Eq. 1 in closed form: every column of a transition matrix has one
    non-zero entry, so a job's entry of the product is one path — the
    even splits ``1 / siblings`` of its enclosing scopes, multiplied
    left to right, times its weight over its innermost scope's weight
    sum. These are the products :func:`chain_product` forms (the other
    terms of each dot product are exact zeros), so the result is
    bit-equal to the dense chain when the weight sums are exact
    (integer sizes) and within rounding of it for fractional
    priorities, whose row sum numpy adds pairwise.
    """
    if not jobs:
        return {}
    jobs, job_ids = _by_id(jobs)
    getters, weight = _level_readers(levels)
    # Each job's innermost scope, keyed once; every level above it works
    # on the distinct scopes only.
    scopes = (list(zip(*[map(getter, jobs) for getter in getters]))
              if getters else [()] * len(jobs))
    distinct = dict.fromkeys(scopes)
    reach: Dict[tuple, float] = {(): 1.0}  # the part of [0, 1] a scope gets
    for depth in range(len(getters)):
        children = dict.fromkeys(scope[:depth + 1] for scope in distinct)
        siblings = Counter(child[:depth] for child in children)
        reach = {child: reach[child[:depth]] * (1.0 / siblings[child[:depth]])
                 for child in children}
    # Weight sums per innermost scope, added in job order by scope index.
    slot = {scope: i for i, scope in enumerate(distinct)}
    slots = list(map(slot.__getitem__, scopes))
    weights = weight(jobs)
    totals = [0.0] * len(slot)
    for i, w in zip(slots, weights):
        totals[i] += w
    scope_reach = [reach[scope] for scope in distinct]
    return dict(zip(job_ids, [scope_reach[i] * (w / totals[i])
                              for i, w in zip(slots, weights)]))
