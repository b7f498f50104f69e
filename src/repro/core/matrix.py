"""Eq. 1 in closed form: a policy chain's per-job shares (§3).

The statistical token assignment for a composite policy is defined as

    prod_{i=0}^{N-1} T^i        (Eq. 1)

where ``T^i`` is the transition matrix of sharing-entity level *i*: each
row is a token queue (an entity scope of level *i-1*), each column an
entity of level *i*, and entry ``T[j, k]`` is entity *k*'s fair share
**within its local scope**. Consequently each row sums to one and each
column has exactly one non-zero entry (an entity belongs to exactly one
parent scope). The product collapses the hierarchy into a single row
vector of per-job shares of [0, 1] — the statistical tokens of Fig. 3.

The shares are evaluated in closed form by :class:`ShareChain`, which a
token scheduler keeps current across job-set changes; the dense product
itself is the test oracle (``tests/core/matrix_reference.py``).
"""

from __future__ import annotations

from itertools import compress
from operator import attrgetter, is_not
from typing import TYPE_CHECKING, Callable, Dict, List, Sequence, Tuple

from ..errors import PolicyError
from .jobinfo import JobInfo
from .tokens import ordered_sum

if TYPE_CHECKING:  # pragma: no cover
    from .policy import Level

__all__ = ["ShareChain", "chain_shares"]


_JOB_ID = attrgetter("job_id")


def _level_readers(levels: Sequence["Level"]) -> Tuple[list, Callable]:
    """One entity getter per non-terminal level and the terminal level's
    weight of a job, resolved once per chain, not per job per level."""
    from .policy import Level  # policy imports this module
    entity = {Level.GROUP: attrgetter("group"),
              Level.USER: attrgetter("user")}
    weight = {Level.JOB: lambda job: 1.0,
              Level.SIZE: lambda job: float(job.size),
              Level.PRIORITY: lambda job: float(job.priority)}
    *heads, tail = levels
    for level in heads:
        if level not in entity:
            raise PolicyError(f"level {level.value!r} has no entity key")
    if tail not in weight:
        raise PolicyError(f"level {tail.value!r} is not terminal")
    return [entity[level] for level in heads], weight[tail]


class ShareChain:
    """Eq. 1 for one policy chain, kept current as its job set changes.

    Every column of a transition matrix has one non-zero entry, so a
    job's entry of the product is one path: the even splits ``1 /
    siblings`` of its enclosing scopes, multiplied left to right (its
    scope's *reach*), times its weight over its innermost scope's
    weight total. These are the products the dense chain forms
    (the other terms of each dot product are exact zeros), so the
    shares are bit-equal to the dense chain when the weight totals are
    exact (integer sizes) and within rounding of it for fractional
    priorities, whose row sum numpy adds pairwise.

    A job's share therefore depends only on its weight, its innermost
    scope's members and the child counts of its scope's prefixes. The
    chain keeps exactly those — each innermost scope's members and
    weights in job-id order, the non-empty children of every scope
    prefix, and the last result — and :meth:`update` compares the new
    job set with the last one by job id. A job whose :class:`JobInfo`
    is no longer equal (a resize or a regroup) leaves its old scope and
    joins its new one. Only the scopes a change touched, and the scopes
    under a prefix whose child count changed, are evaluated again, with
    the same float operations in the same order as a fresh evaluation:
    the reach multiplied level by level, the total summed in job-id
    order. So what the chain holds changes what an update costs, never
    what it returns: every result equals a fresh
    ``ShareChain(levels).update(jobs)``.

    :attr:`evaluated` counts the job shares evaluated, so what updates
    cost can be compared with fresh evaluations (which count every job).
    """

    __slots__ = ("_getters", "_weight", "_depth", "_jobs", "_members",
                 "_kids", "_shares", "evaluated")

    def __init__(self, levels: Sequence["Level"]):
        self._getters, self._weight = _level_readers(levels)
        self._depth = len(self._getters)
        self._reset()
        self.evaluated = 0

    def _reset(self) -> None:
        #: job id -> the JobInfo last seen.
        self._jobs: Dict[int, JobInfo] = {}
        #: innermost scope -> {job id: weight}, in job-id order.
        self._members: Dict[tuple, Dict[int, float]] = {}
        #: scope prefix -> its non-empty child scopes (as dict keys).
        self._kids: Dict[tuple, Dict[tuple, None]] = {}
        #: job id -> share, in job-id order: the last result.
        self._shares: Dict[int, float] = {}

    def _scope(self, job: JobInfo) -> tuple:
        return tuple([getter(job) for getter in self._getters])

    def update(self, jobs: Sequence[JobInfo]) -> Dict[int, float]:
        """Per-job shares of [0, 1] over *jobs* (sums to 1), keyed in
        ascending job-id order; a new dict the caller owns. Jobs must
        have distinct ids."""
        ids = list(map(_JOB_ID, jobs))
        current = dict(zip(ids, jobs))
        if len(current) != len(ids):
            raise PolicyError(f"duplicate job ids: {sorted(ids)}")
        if not current:
            self._reset()
            return {}
        last = self._jobs
        left: List[JobInfo] = []
        joined: List[JobInfo] = []
        arrived: List[int] = []
        # Only a job whose info is not the object held last time can
        # have moved; most are, and this pass finds the rest in C.
        for job in compress(jobs, map(is_not, map(last.get, ids), jobs)):
            old = last.get(job.job_id)
            if old is None:
                arrived.append(job.job_id)
                joined.append(job)
            elif old != job:
                left.append(old)
                joined.append(job)
        # The ids kept are those of *current* that did not arrive: if
        # they number as many as *last*, none has gone.
        gone = (sorted(last.keys() - current.keys())
                if len(last) != len(current) - len(arrived) else [])
        left.extend(map(last.__getitem__, gone))
        self._jobs = current
        shares = self._shares
        if not joined and not left:
            return dict(shares)

        members, kids = self._members, self._kids
        touched: Dict[tuple, None] = {}   # scopes whose members changed
        counts: Dict[tuple, int] = {}     # prefix -> child count before
        for job in left:
            scope = self._scope(job)
            group = members[scope]
            del group[job.job_id]
            touched[scope] = None
            if not group:
                del members[scope]
                self._unlink(scope, counts)
        for job_id in gone:
            del shares[job_id]
        for job in joined:
            scope = self._scope(job)
            job_id = job.job_id
            group = members.get(scope)
            if group is None:
                members[scope] = group = {}
                self._link(scope, counts)
            late = group and job_id < next(reversed(group))
            group[job_id] = self._weight(job)
            if late:
                # A lower id, or a job re-joining its scope: restore the
                # job-id order the total is summed in.
                members[scope] = dict(sorted(group.items()))
            touched[scope] = None
        if arrived:
            arrived.sort()
            late = shares and arrived[0] < next(reversed(shares))
            shares.update(dict.fromkeys(arrived, 0.0))
            if late:
                self._shares = shares = dict(sorted(shares.items()))
        for prefix, before in counts.items():
            if prefix in kids and len(kids[prefix]) != before:
                touched.update(dict.fromkeys(self._under(prefix)))

        depth = self._depth
        for scope in touched:
            group = members.get(scope)
            if group is None:
                continue
            reach = 1.0
            for d in range(depth):
                reach = reach * (1.0 / len(kids[scope[:d]]))
            total = ordered_sum(group.values())
            for job_id, w in group.items():
                shares[job_id] = reach * (w / total)
            self.evaluated += len(group)
        return dict(shares)

    def _unlink(self, scope: tuple, counts: Dict[tuple, int]) -> None:
        """Drop an emptied *scope* from its parent, and each ancestor it
        leaves empty from its own, noting each parent's count before."""
        kids = self._kids
        while scope:
            parent = scope[:-1]
            siblings = kids[parent]
            counts.setdefault(parent, len(siblings))
            del siblings[scope]
            if siblings:
                return
            del kids[parent]
            scope = parent

    def _link(self, scope: tuple, counts: Dict[tuple, int]) -> None:
        """Add a new *scope* under its parent, and each ancestor it
        creates under its own, noting each parent's count before."""
        kids = self._kids
        while scope:
            parent = scope[:-1]
            siblings = kids.get(parent)
            if siblings is not None:
                counts.setdefault(parent, len(siblings))
                siblings[scope] = None
                return
            counts.setdefault(parent, 0)
            kids[parent] = {scope: None}
            scope = parent

    def _under(self, prefix: tuple) -> List[tuple]:
        """The innermost scopes under *prefix* (itself if innermost)."""
        kids = self._kids
        scopes = [prefix]
        for _ in range(self._depth - len(prefix)):
            scopes = [child for scope in scopes for child in kids[scope]]
        return scopes


def chain_shares(levels: Sequence["Level"],
                 jobs: Sequence[JobInfo]) -> Dict[int, float]:
    """Per-job shares of [0, 1] for *levels* over *jobs* (sums to 1),
    keyed in ascending job-id order: Eq. 1 in closed form, evaluated
    afresh (:class:`ShareChain`)."""
    return ShareChain(levels).update(jobs)
