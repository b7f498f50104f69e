"""Tests for transition matrices and the Eq. 1 chain product.

``Policy.shares`` is ``chain_shares``, a fresh :class:`ShareChain`; a
token scheduler keeps one chain and updates it at every job-set change,
re-evaluating only the scopes a change touched. So besides the dense
chain product, the oracles under randomized job churn (arrivals,
departures, resizes, regroups, a user's or a group's last job leaving,
the empty set) drive one chain through the whole sequence: each result
must equal the parent's closed form (``sync_reference``) bit for bit,
key order included, and the share of each job worked out level by level
in plain Python (an even split among the sibling entities of every
non-terminal level, then the job's weight over its innermost scope's
total).
"""

import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (JobInfo, Level, Policy, ShareChain,
                        build_transition_matrices, chain_product,
                        chain_shares, validate_transition_matrix)
from repro.errors import PolicyError

from .sync_reference import reference_chain_shares


def job(jid, user="u0", group="g0", size=1):
    return JobInfo(job_id=jid, user=user, group=group, size=size)


FIG4_JOBS = ([job(i, user="u1") for i in (1, 2)] +
             [job(i, user="u2") for i in (3, 4, 5, 6)])


class TestBuild:
    def test_fig4_user_then_job_matrices(self):
        matrices, job_ids = build_transition_matrices(
            (Level.USER, Level.JOB), FIG4_JOBS)
        assert len(matrices) == 2
        user_matrix, job_matrix = matrices
        # User matrix: 1x2, both users get half.
        assert user_matrix.shape == (1, 2)
        np.testing.assert_allclose(user_matrix, [[0.5, 0.5]])
        # Job matrix: row per user queue; 2 jobs at 1/2, 4 jobs at 1/4.
        assert job_matrix.shape == (2, 6)
        np.testing.assert_allclose(job_matrix[0], [0.5, 0.5, 0, 0, 0, 0])
        np.testing.assert_allclose(job_matrix[1], [0, 0, 0.25, 0.25, 0.25, 0.25])
        assert job_ids == [1, 2, 3, 4, 5, 6]

    def test_every_matrix_satisfies_structural_constraints(self):
        jobs = [job(i, user=f"u{i % 3}", group=f"g{i % 2}", size=i + 1)
                for i in range(9)]
        matrices, _ = build_transition_matrices(
            (Level.GROUP, Level.USER, Level.SIZE), jobs)
        for T in matrices:
            validate_transition_matrix(T)

    def test_duplicate_job_ids_rejected(self):
        with pytest.raises(PolicyError):
            build_transition_matrices((Level.JOB,), [job(1), job(1)])

    def test_empty_jobs(self):
        matrices, job_ids = build_transition_matrices((Level.JOB,), [])
        assert matrices == [] and job_ids == []


class TestValidate:
    def test_rejects_bad_row_sum(self):
        with pytest.raises(PolicyError):
            validate_transition_matrix(np.array([[0.5, 0.4]]))

    def test_rejects_multiple_nonzero_per_column(self):
        T = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(PolicyError):
            validate_transition_matrix(T)

    def test_rejects_negative(self):
        with pytest.raises(PolicyError):
            validate_transition_matrix(np.array([[1.5, -0.5]]))

    def test_rejects_wrong_ndim(self):
        with pytest.raises(PolicyError):
            validate_transition_matrix(np.ones(3))

    def test_accepts_valid(self):
        validate_transition_matrix(np.array([[0.25, 0.75, 0.0],
                                             [0.0, 0.0, 1.0]]))
        validate_transition_matrix(np.array([[1.0, 0.0], [0.0, 1.0]]))


class TestChain:
    def test_fig3b_product(self):
        matrices, job_ids = build_transition_matrices(
            (Level.USER, Level.JOB), FIG4_JOBS)
        shares = chain_product(matrices)
        np.testing.assert_allclose(
            shares, [[0.25, 0.25, 0.125, 0.125, 0.125, 0.125]])

    def test_chain_shares_matches_product(self):
        shares = chain_shares((Level.USER, Level.JOB), FIG4_JOBS)
        assert shares == pytest.approx(
            {1: 0.25, 2: 0.25, 3: 0.125, 4: 0.125, 5: 0.125, 6: 0.125})

    def test_empty_chain(self):
        out = chain_product([])
        assert out.shape == (1, 0)

    def test_single_level_size(self):
        shares = chain_shares((Level.SIZE,), [job(1, size=3), job(2, size=1)])
        assert shares == pytest.approx({1: 0.75, 2: 0.25})

    def test_deep_chain_shares_sum_to_one(self):
        jobs = [job(i, user=f"u{i % 4}", group=f"g{i % 2}", size=(i % 5) + 1)
                for i in range(20)]
        shares = chain_shares((Level.GROUP, Level.USER, Level.SIZE), jobs)
        assert sum(shares.values()) == pytest.approx(1.0)


def dense_shares(levels, jobs):
    """Eq. 1 as written: the dense chain product, the oracle of the
    closed form ``chain_shares`` evaluates."""
    matrices, job_ids = build_transition_matrices(levels, jobs)
    return dict(zip(job_ids, chain_product(matrices).reshape(-1).tolist()))


POLICIES = st.sampled_from([
    "job-fair", "size-fair", "priority-fair", "user-fair",
    "user-then-size-fair", "group-then-user-fair", "group-user-size-fair"])


def populations(priority):
    return st.lists(
        st.builds(JobInfo, job_id=st.integers(0, 10_000),
                  user=st.sampled_from(["u0", "u1", "u2", "u3"]),
                  group=st.sampled_from(["g0", "g1", "g2"]),
                  size=st.integers(1, 4096), priority=priority),
        min_size=1, max_size=40, unique_by=lambda job: job.job_id)


class TestClosedFormAgainstDenseChain:
    @settings(max_examples=300)
    @given(POLICIES, populations(st.integers(1, 64).map(float)))
    def test_integer_weights_are_bit_equal(self, spec, jobs):
        levels = Policy.parse(spec).levels
        closed = chain_shares(levels, jobs)
        assert closed == dense_shares(levels, jobs)
        assert list(closed) == sorted(job.job_id for job in jobs)

    @settings(max_examples=200)
    @given(st.sampled_from(["priority-fair", "user-then-priority-fair",
                            "group-user-priority-fair"]),
           populations(st.floats(0.01, 100.0)))
    def test_fractional_priorities_agree_within_rounding(self, spec, jobs):
        # numpy adds the terminal row pairwise, the closed form in job
        # order: the weight sums may differ in the last bits.
        levels = Policy.parse(spec).levels
        assert chain_shares(levels, jobs) == pytest.approx(
            dense_shares(levels, jobs), rel=1e-12, abs=1e-12)

    def test_duplicate_job_ids_rejected(self):
        with pytest.raises(PolicyError):
            chain_shares((Level.JOB,), [job(1), job(1)])


# --------------------------------------------------- churn, level by level
_WEIGHT = {Level.JOB: lambda j: 1.0, Level.SIZE: lambda j: float(j.size),
           Level.PRIORITY: lambda j: float(j.priority)}


def _reference_shares(levels, jobs):
    """Eq. 1 without matrices: walk each job's scope chain."""
    *heads, tail = levels
    scope = {j.job_id: () for j in jobs}
    share = {j.job_id: 1.0 for j in jobs}
    for level in heads:
        child = {j.job_id: scope[j.job_id] + (getattr(j, level.value),)
                 for j in jobs}
        for j in jobs:
            siblings = {child[o.job_id] for o in jobs
                        if scope[o.job_id] == scope[j.job_id]}
            share[j.job_id] /= len(siblings)
        scope = child
    weight = _WEIGHT[tail]
    for j in jobs:
        total = sum(weight(o) for o in jobs
                    if scope[o.job_id] == scope[j.job_id])
        share[j.job_id] *= weight(j) / total
    return share


def _drop(jobs: dict, field: str, value: str) -> None:
    for jid in [jid for jid, info in jobs.items()
                if getattr(info, field) == value]:
        del jobs[jid]


def _mutate(rng: random.Random, jobs: dict, next_id: int) -> int:
    r = rng.random()
    if r < 0.35 or not jobs:           # an arrival, at times of an old id
        jid = rng.randrange(next_id + 1)
        if jid in jobs or jid == next_id:
            jid = next_id
            next_id += 1
        jobs[jid] = JobInfo(job_id=jid, user=f"u{rng.randrange(7)}",
                            group=f"g{rng.randrange(5)}",
                            size=rng.randrange(1, 9),
                            priority=rng.choice([0.1, 0.3, 1.0, 2.7]))
    elif r < 0.52:                                    # a departure
        jobs.pop(rng.choice(sorted(jobs)))
    elif r < 0.70:                                    # a resize
        jid = rng.choice(sorted(jobs))
        jobs[jid] = replace(jobs[jid], size=rng.randrange(1, 9))
    elif r < 0.80:                                    # a regroup or rename
        jid = rng.choice(sorted(jobs))
        jobs[jid] = replace(jobs[jid], user=f"u{rng.randrange(7)}",
                            group=f"g{rng.randrange(5)}")
    elif r < 0.88:                                    # a user leaves
        _drop(jobs, "user", jobs[rng.choice(sorted(jobs))].user)
    elif r < 0.95:                                    # a group empties
        _drop(jobs, "group", jobs[rng.choice(sorted(jobs))].group)
    else:                                             # the empty set
        jobs.clear()
    return next_id


@pytest.mark.parametrize("spec", ["job-fair", "size-fair", "priority-fair",
                                  "user-then-size-fair",
                                  "group-user-size-fair", "user-fair",
                                  "user-then-job-fair",
                                  "group-then-user-fair",
                                  "group-user-then-size-fair",
                                  "user-then-priority-fair",
                                  "group-user-then-priority-fair"])
@pytest.mark.parametrize("seed", [0, 1])
def test_chain_shares_under_random_churn(spec, seed):
    policy = Policy.parse(spec)
    chain = ShareChain(policy.levels)
    rng = random.Random(seed)
    jobs = {}
    next_id = 0
    for _ in range(300):
        next_id = _mutate(rng, jobs, next_id)
        population = list(jobs.values())
        rng.shuffle(population)       # the chain sorts what it is given
        if population and rng.random() < 0.05:
            with pytest.raises(PolicyError):
                reference_chain_shares(policy.levels,
                                       population + population[:1])
            with pytest.raises(PolicyError):
                chain.update(population + population[:1])
        shares = chain.update(population)
        expected = reference_chain_shares(policy.levels, population)
        assert shares == expected
        assert list(shares) == list(expected) == sorted(jobs)
        assert policy.shares(population) == shares
        if not population:
            assert shares == {}
            continue
        assert sum(shares.values()) == pytest.approx(1.0, abs=1e-12)
        assert all(s > 0 for s in shares.values())
        assert shares == pytest.approx(
            _reference_shares(policy.levels, population), rel=1e-12)
        # Job ids are labels: relabelling (which also permutes the
        # matrix columns) moves each share with its job.
        relabel = dict(zip(sorted(jobs), rng.sample(range(1000, 2000),
                                                    len(jobs))))
        moved = chain_shares(policy.levels, [
            replace(j, job_id=relabel[j.job_id]) for j in population])
        assert {relabel[j]: s for j, s in shares.items()} == pytest.approx(
            moved, rel=1e-12)


def test_shares_do_not_depend_on_input_order():
    levels = Policy.parse("group-user-size-fair").levels
    population = [JobInfo(job_id=i, user=f"u{i % 2}", group="g0",
                          size=i + 1) for i in range(6)]
    first = chain_shares(levels, population)
    assert chain_shares(levels, list(reversed(population))) == first
    unsorted = [population[i] for i in (3, 0, 5, 1, 4, 2)]
    assert list(chain_shares(levels, unsorted)) == list(range(6))
    assert chain_shares(levels, unsorted) == first
    # One chain, given the same set in another order, or first a part
    # of it in another order, ends at the same result.
    chain = ShareChain(levels)
    chain.update(unsorted[:4])
    again = chain.update(unsorted)
    assert again == first and list(again) == list(first)
    # Callers own the result: mutating it cannot leak into the next one.
    first[0] = 999.0
    assert chain_shares(levels, population)[0] != 999.0
    again[0] = 999.0
    assert chain.update(population)[0] != 999.0


def test_reach_is_multiplied_level_by_level():
    # 1/5 of 1/5 as ``(1.0 * (1.0 / 5)) * (1.0 / 5)`` is one ulp off
    # ``(1.0 / 5) / 5``: a chain that divides where the closed form
    # multiplies shows here, whichever way it reaches the scope.
    levels = Policy.parse("group-then-user-fair").levels
    jobs = ([JobInfo(job_id=i, user=f"u{i}", group="g0") for i in range(5)]
            + [JobInfo(job_id=10 + g, user="u0", group=f"g{g}")
               for g in range(1, 5)])
    expected = reference_chain_shares(levels, jobs)
    assert expected[0] == (1.0 * (1.0 / 5)) * (1.0 / 5) != (1.0 / 5) / 5
    chain = ShareChain(levels)
    assert chain.update(jobs[:4] + jobs[5:]) == reference_chain_shares(
        levels, jobs[:4] + jobs[5:])
    assert chain.update(jobs) == expected


def test_group_user_size_hand_computed_example():
    # g0: alice {1: 2 nodes, 2: 6 nodes}, bob {3: 1 node}; g1: carol {4}.
    # group 1/2 each -> user 1/2 each inside g0 -> size-proportional.
    jobs = [JobInfo(job_id=1, user="alice", group="g0", size=2),
            JobInfo(job_id=2, user="alice", group="g0", size=6),
            JobInfo(job_id=3, user="bob", group="g0", size=1),
            JobInfo(job_id=4, user="carol", group="g1", size=5)]
    shares = Policy.parse("group-user-size-fair").shares(jobs)
    assert shares == pytest.approx(
        {1: 0.5 * 0.5 * 0.25, 2: 0.5 * 0.5 * 0.75, 3: 0.5 * 0.5, 4: 0.5})
