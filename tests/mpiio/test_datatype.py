"""Tests for MPI-IO file views and interval utilities."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.mpiio import VectorView, coalesce, total_bytes


class TestVectorView:
    def test_rank_interleaving(self):
        view = VectorView(nranks=3, blocklen=10)
        assert view.pieces(0, count=2) == [(0, 10), (30, 10)]
        assert view.pieces(2, count=2) == [(20, 10), (50, 10)]

    def test_ranks_tile_each_round(self):
        view = VectorView(nranks=4, blocklen=5)
        round0 = sorted(p for r in range(4) for p in view.pieces(r, 1))
        assert coalesce(round0) == [(0, 20)]

    def test_invalid(self):
        with pytest.raises(ConfigError):
            VectorView(nranks=0, blocklen=1)
        with pytest.raises(ConfigError):
            VectorView(nranks=2, blocklen=1).pieces(2)


class TestCoalesce:
    def test_merges_adjacent(self):
        assert coalesce([(0, 10), (10, 10)]) == [(0, 20)]

    def test_merges_overlapping(self):
        assert coalesce([(0, 15), (10, 10)]) == [(0, 20)]

    def test_keeps_gaps(self):
        assert coalesce([(0, 10), (20, 10)]) == [(0, 10), (20, 10)]

    def test_unsorted_input(self):
        assert coalesce([(20, 5), (0, 10), (10, 10)]) == [(0, 25)]

    def test_rejects_empty_pieces(self):
        with pytest.raises(ConfigError):
            coalesce([(0, 0)])

    def test_total_bytes(self):
        assert total_bytes([(0, 10), (20, 5)]) == 15


@settings(max_examples=50)
@given(st.lists(st.tuples(st.integers(0, 500), st.integers(1, 50)),
                min_size=1, max_size=20))
def test_property_coalesce_covers_exactly_the_union(pieces):
    merged = coalesce(pieces)
    # Sorted, disjoint, non-adjacent.
    for (a_off, a_len), (b_off, b_len) in zip(merged, merged[1:]):
        assert a_off + a_len < b_off
    # Byte-for-byte union equality.
    union = set()
    for off, length in pieces:
        union.update(range(off, off + length))
    covered = set()
    for off, length in merged:
        covered.update(range(off, off + length))
    assert covered == union
