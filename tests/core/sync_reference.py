"""Reference oracles: the λ-sync bookkeeping and token-derivation kernels
as they were before each learned to skip what did not change — the
table merge that read every record's stamp, the presence update that
walked every row, the Eq. 1 closed form that re-keyed the job set per
level, and the token constructor that validated share by share. The
kernels in ``src/repro`` must return the same values bit for bit, dict
key order included, and raise the same errors. Not a test module.
"""

import math
from collections import Counter
from itertools import accumulate
from operator import attrgetter

from repro.core.policy import Level
from repro.core.tokens import _pairwise_sum
from repro.errors import PolicyError, SchedulerError


def reference_merge(table, remote_entries):
    """``JobStatusTable.merge`` reading every record's stamp."""
    entries = table._entries
    changed = False
    for remote in remote_entries:
        info, stamp, active = remote
        job_id = info.job_id
        mine = entries.get(job_id)
        if mine is not None and not stamp > mine.last_heartbeat:
            continue
        entries[job_id] = remote
        if mine is None or mine.active != active:
            changed = True
            if active:
                table._active_ids.add(job_id)
            else:
                table._active_ids.discard(job_id)
        elif mine.info is not info and mine.info != info:
            changed = True
    if changed:
        table.version += 1
    return changed


def reference_learn_presence(controller, rows):
    """``Controller._learn_presence`` walking every row."""
    presence = controller.presence
    own = controller.server.name
    for host, jobs in rows.items():
        if presence.get(host) is not jobs and host != own:
            controller._set_presence(host, jobs)


def reference_chain_shares(levels, jobs):
    """``chain_shares`` building one scope tuple per job per level."""
    if not jobs:
        return {}
    jobs = sorted(jobs, key=attrgetter("job_id"))
    job_ids = [job.job_id for job in jobs]
    if len(set(job_ids)) != len(job_ids):
        raise PolicyError(f"duplicate job ids: {job_ids}")
    entity = {Level.GROUP: attrgetter("group"),
              Level.USER: attrgetter("user")}
    weight = {Level.JOB: lambda job: 1.0,
              Level.SIZE: lambda job: float(job.size),
              Level.PRIORITY: lambda job: float(job.priority)}[levels[-1]]
    getters = [entity[level] for level in levels[:-1]]
    per_job = [()] * len(jobs)
    scope_chain = [per_job]
    for getter in getters:
        per_job = [scope + (getter(job),)
                   for scope, job in zip(per_job, jobs)]
        scope_chain.append(per_job)
    reach = {(): 1.0}
    for depth in range(len(getters)):
        children = dict.fromkeys(scope_chain[depth + 1])
        siblings = Counter(child[:depth] for child in children)
        reach = {child: reach[child[:depth]] * (1.0 / siblings[child[:depth]])
                 for child in children}
    scopes = scope_chain[-1]
    weights = [weight(job) for job in jobs]
    totals = {}
    for scope, w in zip(scopes, weights):
        totals[scope] = totals.get(scope, 0.0) + w
    return {job_id: reach[scope] * (w / totals[scope])
            for job_id, scope, w in zip(job_ids, scopes, weights)}


class ReferenceTokens:
    """``TokenAssignment``'s constructor validating share by share."""

    def __init__(self, shares):
        if not shares:
            raise SchedulerError("empty share map")
        items = sorted(shares.items())
        for job_id, share in items:
            if not 0.0 <= share < math.inf:
                raise SchedulerError(
                    f"share of job {job_id} must be finite and >= 0: {share}")
        values = [float(s) for _, s in items]
        total = _pairwise_sum(values)
        if not 0.0 < total < math.inf:
            raise SchedulerError(f"shares sum to {total}: {shares}")
        self.job_ids = [job_id for job_id, _ in items]
        self._shares = [v / total for v in values]
        self._cum = list(accumulate(self._shares))
        self._cum[-1] = 1.0
        self._index = {job_id: i for i, job_id in enumerate(self.job_ids)}
