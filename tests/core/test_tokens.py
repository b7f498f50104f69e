"""Tests for the statistical token assignment (segments of [0, 1])."""

from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TokenAssignment
from repro.errors import SchedulerError


class TestConstruction:
    def test_shares_normalised(self):
        a = TokenAssignment({1: 2.0, 2: 2.0})
        assert a.share(1) == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(SchedulerError):
            TokenAssignment({})

    def test_negative_rejected(self):
        with pytest.raises(SchedulerError):
            TokenAssignment({1: -0.1, 2: 1.1})

    def test_all_zero_rejected(self):
        with pytest.raises(SchedulerError):
            TokenAssignment({1: 0.0})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, bad):
        # Neither is negative, so both once passed: every draw then went
        # to the one finite job (NaN boundaries compare False).
        with pytest.raises(SchedulerError):
            TokenAssignment({1: bad, 2: 1.0})

    def test_contains_and_len(self):
        a = TokenAssignment({1: 0.5, 2: 0.5})
        assert 1 in a and 3 not in a
        assert len(a) == 2


class TestSegments:
    def test_segments_partition_unit_interval(self):
        a = TokenAssignment({1: 0.66, 2: 0.33})
        lo1, hi1 = a.segment(1)
        lo2, hi2 = a.segment(2)
        assert lo1 == 0.0
        assert hi1 == pytest.approx(lo2)
        assert hi2 == 1.0

    def test_fig3a_job_fair_two_jobs(self):
        a = TokenAssignment({1: 1.0, 2: 1.0})
        assert a.segment(1) == (0.0, pytest.approx(0.5))
        assert a.segment(2) == (pytest.approx(0.5), 1.0)

    def test_unknown_job_raises(self):
        a = TokenAssignment({1: 1.0})
        with pytest.raises(SchedulerError):
            a.segment(2)


class TestDraws:
    def test_draw_maps_u_to_segment(self):
        a = TokenAssignment({1: 0.5, 2: 0.5})
        assert a.draw(0.0) == 1
        assert a.draw(0.49) == 1
        assert a.draw(0.5) == 2
        assert a.draw(0.99) == 2

    def test_draw_out_of_range_rejected(self):
        a = TokenAssignment({1: 1.0})
        with pytest.raises(SchedulerError):
            a.draw(1.0)
        with pytest.raises(SchedulerError):
            a.draw(-0.01)

    def test_draw_frequency_approximates_shares(self):
        a = TokenAssignment({1: 3.0, 2: 1.0})
        rng = np.random.default_rng(0)
        hits = sum(a.draw(float(u)) == 1 for u in rng.random(20000))
        assert 0.73 < hits / 20000 < 0.77


class TestDrawBoundaries:
    """Edge geometry of the segment search."""

    def test_u_exactly_on_segment_edge_goes_to_next_job(self):
        # cum boundaries at 0.25 / 0.5 / 0.75: an exact hit belongs to
        # the following segment ([lo, hi) semantics, side="right").
        a = TokenAssignment({1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0})
        assert a.draw(0.25) == 2
        assert a.draw(0.5) == 3
        assert a.draw(0.75) == 4
        # Just below the edge still lands in the earlier segment.
        assert a.draw(np.nextafter(0.25, 0.0)) == 1

    def test_single_job_assignment_always_wins(self):
        a = TokenAssignment({7: 3.5})
        for u in (0.0, 0.3, 0.999999):
            assert a.draw(u) == 7
        assert a.segment(7) == (0.0, 1.0)


@settings(max_examples=60)
@given(st.dictionaries(st.integers(0, 50),
                       st.floats(0.01, 100.0),
                       min_size=1, max_size=12),
       st.floats(0.0, 0.999999))
def test_property_draw_consistent_with_segments(shares, u):
    """draw(u) always returns the job whose [lo, hi) segment contains u,
    and segments tile [0, 1] without gaps or overlaps."""
    a = TokenAssignment(shares)
    chosen = a.draw(u)
    lo, hi = a.segment(chosen)
    assert lo <= u < hi or (u >= hi == 1.0)
    # Segments tile the interval in job-id order.
    edges = [a.segment(j) for j in a.job_ids]
    assert edges[0][0] == 0.0
    assert edges[-1][1] == 1.0
    for (a_lo, a_hi), (b_lo, b_hi) in zip(edges, edges[1:]):
        assert a_hi == pytest.approx(b_lo)


@settings(max_examples=200)
@given(st.dictionaries(st.integers(0, 300), st.floats(0.0, 100.0),
                       min_size=1, max_size=200).filter(
                           lambda d: sum(d.values()) > 0),
       st.sets(st.integers(0, 320), min_size=1, max_size=200),
       st.floats(0.0, 1.0, exclude_max=True))
def test_property_cut_is_the_recut_assignment(shares, backlog, u):
    """cut(jobs) holds, bit for bit, the boundaries of an assignment
    built over *jobs*, a job outside the assignment or with a zero share
    holding the mean share, so a bisect over it draws what that
    assignment draws; *jobs* spans ids in and out of the table."""
    a = TokenAssignment(shares)
    jobs = sorted(backlog)
    mean = 1.0 / len(a)
    recut = TokenAssignment(
        {j: (a.share(j) if j in a and a.share(j) > 0 else mean)
         for j in jobs})
    cut = a.cut(jobs)
    assert cut == [recut.segment(j)[1] for j in jobs]
    assert jobs[bisect_right(cut, u)] == recut.draw(u)
