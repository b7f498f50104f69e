"""Reference oracles: the λ-sync bookkeeping and token-derivation kernels
as they were before each learned to skip what did not change — the
table merge that read every record's stamp, the presence update that
walked every row, the Eq. 1 closed form that re-keyed the job set per
level, the Fig. 5 projection that found host-set classes job by job,
and the token constructor that validated share by share. The kernels in
``src/repro`` must return the same values bit for bit, dict key order
included, and raise the same errors. Not a test module.
"""

import math
from collections import Counter
from itertools import accumulate
from operator import attrgetter

from repro.core.fairness import _RTOL
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


def _sum(values):
    """The built-in ``sum`` of floats up to Python 3.11: left to right."""
    total = 0
    for v in values:
        total = total + v
    return total


def reference_solve_placement(presence, global_shares, iterations=100,
                              tol=1e-9):
    """``_solve_placement`` finding host sets job by job (S x J)."""
    servers = sorted(presence)
    rows = {s: {} for s in servers}
    hosts = {}
    for r, server in enumerate(servers):
        for job_id in presence[server]:
            if global_shares.get(job_id, 0.0) > 0:
                hosts[job_id] = hosts.get(job_id, ()) + (r,)
    if not hosts:
        return rows
    classes = {}
    for job_id in sorted(hosts):
        classes.setdefault(hosts[job_id], []).append(job_id)
    n = len(servers)
    members = list(classes.values())
    member_shares = [[global_shares[j] for j in jobs] for jobs in members]
    weights = [_sum(shares) for shares in member_shares]
    targets = [w * n for w in weights]
    row_bound = tol + _RTOL
    col_bounds = [tol * w / max(shares) + _RTOL * t
                  for w, shares, t in zip(weights, member_shares, targets)]
    index = [(c, r, k) for c, (r, k) in enumerate(
        (r, k) for k, rs in enumerate(classes) for r in rs)]
    cells = [weights[k] for _, _, k in index]
    row_sums = [0.0] * n
    for c, r, _ in index:
        row_sums[r] += cells[c]
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
    for c, r, k in index:
        unit = cells[c] / (row_sums[r] or 1.0) / weights[k]
        row = rows[servers[r]]
        for job_id, share in zip(members[k], member_shares[k]):
            cell = share * unit
            if cell > 0:
                row[job_id] = cell
    return rows


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
