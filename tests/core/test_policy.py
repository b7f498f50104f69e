"""Tests for the policy language and share evaluation (§2.2.2, §3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import JobInfo, Level, Policy
from repro.errors import PolicyError


def job(jid, user="u0", group="g0", size=1, priority=1.0):
    return JobInfo(job_id=jid, user=user, group=group, size=size,
                   priority=priority)


class TestParsing:
    @pytest.mark.parametrize("spec,levels", [
        ("job-fair", (Level.JOB,)),
        ("size-fair", (Level.SIZE,)),
        ("priority-fair", (Level.PRIORITY,)),
        ("user-fair", (Level.USER, Level.JOB)),
        ("group-fair", (Level.GROUP, Level.JOB)),
        ("user-then-job-fair", (Level.USER, Level.JOB)),
        ("user-then-size-fair", (Level.USER, Level.SIZE)),
        ("group-then-user-fair", (Level.GROUP, Level.USER, Level.JOB)),
        ("group-user-then-size-fair", (Level.GROUP, Level.USER, Level.SIZE)),
        ("group-user-size-fair", (Level.GROUP, Level.USER, Level.SIZE)),
        ("Group-User-Size-FAIR", (Level.GROUP, Level.USER, Level.SIZE)),
    ])
    def test_accepted(self, spec, levels):
        assert Policy.parse(spec).levels == levels

    @pytest.mark.parametrize("spec", [
        "", "fair", "banana-fair", "size-then-user-fair",
        "user-then-group-fair", "user-user-fair", "fifo",
    ])
    def test_rejected(self, spec):
        with pytest.raises(PolicyError):
            Policy.parse(spec)

    def test_name_roundtrip(self):
        p = Policy.parse("group-user-then-size-fair")
        assert Policy.parse(p.name) == p

    def test_direct_construction_validates(self):
        with pytest.raises(PolicyError):
            Policy(())
        with pytest.raises(PolicyError):
            Policy((Level.USER,))  # non-terminal tail
        with pytest.raises(PolicyError):
            Policy((Level.SIZE, Level.JOB))  # terminal not last


class TestPrimitiveShares:
    def test_job_fair_is_even(self):
        shares = Policy.parse("job-fair").shares([job(1), job(2), job(3)])
        assert shares == pytest.approx({1: 1 / 3, 2: 1 / 3, 3: 1 / 3})

    def test_size_fair_is_proportional(self):
        shares = Policy.parse("size-fair").shares(
            [job(1, size=16), job(2, size=8), job(3, size=8)])
        assert shares == pytest.approx({1: 0.5, 2: 0.25, 3: 0.25})

    def test_priority_fair(self):
        shares = Policy.parse("priority-fair").shares(
            [job(1, priority=3.0), job(2, priority=1.0)])
        assert shares == pytest.approx({1: 0.75, 2: 0.25})

    def test_user_fair_splits_users_then_jobs(self):
        # Fig 8(c): user A runs two jobs, user B runs one; A's jobs get a
        # quarter each, B's job gets half.
        shares = Policy.parse("user-fair").shares([
            job(1, user="A"), job(2, user="A"), job(3, user="B")])
        assert shares == pytest.approx({1: 0.25, 2: 0.25, 3: 0.5})

    def test_single_job_gets_everything(self):
        assert Policy.parse("size-fair").shares([job(7, size=999)]) == {7: 1.0}

    def test_no_jobs_empty(self):
        assert Policy.parse("job-fair").shares([]) == {}


class TestCompositeShares:
    def test_fig3b_user_then_job_fair(self):
        # Two users: one with 2 jobs, the other with 4 (Figs. 2-4).
        jobs = ([job(i, user="u1") for i in (1, 2)] +
                [job(i, user="u2") for i in (3, 4, 5, 6)])
        shares = Policy.parse("user-then-job-fair").shares(jobs)
        assert shares == pytest.approx(
            {1: 0.25, 2: 0.25, 3: 0.125, 4: 0.125, 5: 0.125, 6: 0.125})

    def test_fig9_user_then_size_fair(self):
        # §5.3.2: user 1 jobs of 1 and 2 nodes; user 2 jobs of 4 and 6.
        jobs = [job(1, user="u1", size=1), job(2, user="u1", size=2),
                job(3, user="u2", size=4), job(4, user="u2", size=6)]
        shares = Policy.parse("user-then-size-fair").shares(jobs)
        assert shares == pytest.approx(
            {1: 0.5 / 3, 2: 1.0 / 3, 3: 0.2, 4: 0.3})

    def test_group_user_size_three_tier(self):
        # Fig 11-style: 2 groups; group1 has 1 user, group2 has 3 users.
        jobs = [
            job(1, group="G1", user="u1", size=2),
            job(2, group="G1", user="u1", size=2),
            job(3, group="G2", user="u2", size=2),
            job(4, group="G2", user="u2", size=3),
            job(5, group="G2", user="u2", size=2),
            job(6, group="G2", user="u3", size=1),
            job(7, group="G2", user="u4", size=1),
        ]
        shares = Policy.parse("group-user-size-fair").shares(jobs)
        # Groups: 1/2 each. G1/u1: jobs 1,2 split evenly by size -> 1/4 each.
        assert shares[1] == pytest.approx(0.25)
        assert shares[2] == pytest.approx(0.25)
        # G2 users get 1/6 each; u2's jobs split 2:3:2.
        assert shares[3] == pytest.approx((1 / 6) * (2 / 7))
        assert shares[4] == pytest.approx((1 / 6) * (3 / 7))
        assert shares[6] == pytest.approx(1 / 6)
        assert shares[7] == pytest.approx(1 / 6)

    def test_shares_always_sum_to_one(self):
        jobs = [job(i, user=f"u{i % 3}", group=f"g{i % 2}", size=i + 1)
                for i in range(10)]
        for spec in ("job-fair", "size-fair", "user-fair",
                     "user-then-size-fair", "group-user-size-fair"):
            total = sum(Policy.parse(spec).shares(jobs).values())
            assert total == pytest.approx(1.0)


@settings(max_examples=40)
@given(st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 2), st.integers(1, 32),
              st.floats(0.1, 10.0)),
    min_size=1, max_size=12),
    st.sampled_from(["job-fair", "size-fair", "user-fair", "priority-fair",
                     "user-then-size-fair", "group-user-size-fair",
                     "group-then-user-fair"]))
def test_property_shares_partition_unity(raw_jobs, spec):
    """For any job population and policy: all shares positive, sum to 1."""
    jobs = [job(i, user=f"u{u}", group=f"g{g}", size=s, priority=p)
            for i, (u, g, s, p) in enumerate(raw_jobs)]
    shares = Policy.parse(spec).shares(jobs)
    assert set(shares) == {j.job_id for j in jobs}
    assert all(s > 0 for s in shares.values())
    assert sum(shares.values()) == pytest.approx(1.0)
