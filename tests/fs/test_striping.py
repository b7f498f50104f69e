"""Tests for stripe layout computation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidArgument
from repro.fs import StripeSpec, map_range
from repro.fs.striping import server_spans, split_range


def spec(size=100, servers=("a", "b", "c")):
    return StripeSpec(stripe_size=size, servers=tuple(servers))


class TestSpec:
    def test_round_robin_server_of_chunk(self):
        s = spec()
        assert [s.server_of_chunk(i) for i in range(5)] == ["a", "b", "c", "a", "b"]

    def test_invalid_specs(self):
        with pytest.raises(InvalidArgument):
            StripeSpec(stripe_size=0, servers=("a",))
        with pytest.raises(InvalidArgument):
            StripeSpec(stripe_size=10, servers=())


class TestMapRange:
    def test_single_chunk(self):
        pieces = map_range(spec(), 10, 50)
        assert len(pieces) == 1
        p = pieces[0]
        assert (p.chunk_index, p.server, p.chunk_offset, p.length) == (0, "a", 10, 50)

    def test_chunk_boundary_split(self):
        pieces = map_range(spec(), 90, 20)
        assert [(p.chunk_index, p.server, p.chunk_offset, p.length)
                for p in pieces] == [(0, "a", 90, 10), (1, "b", 0, 10)]

    def test_spanning_many_chunks(self):
        pieces = map_range(spec(), 0, 350)
        assert [p.chunk_index for p in pieces] == [0, 1, 2, 3]
        assert [p.server for p in pieces] == ["a", "b", "c", "a"]
        assert [p.length for p in pieces] == [100, 100, 100, 50]

    def test_zero_length(self):
        assert map_range(spec(), 5, 0) == []

    def test_negative_rejected(self):
        with pytest.raises(InvalidArgument):
            map_range(spec(), -1, 10)
        with pytest.raises(InvalidArgument):
            map_range(spec(), 0, -5)


@settings(max_examples=80)
@given(st.integers(min_value=1, max_value=300),
       st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=1000),
       st.integers(min_value=0, max_value=1000))
def test_property_slices_tile_the_range(stripe_size, n_servers, offset, length):
    """Slices are contiguous, in order, cover exactly the range, and stay
    within chunk bounds on the right server."""
    s = StripeSpec(stripe_size, tuple(f"s{i}" for i in range(n_servers)))
    pieces = map_range(s, offset, length)
    assert sum(p.length for p in pieces) == length
    pos = offset
    for p in pieces:
        assert p.file_offset == pos
        assert p.server == s.servers[p.chunk_index % n_servers]
        assert 0 <= p.chunk_offset < stripe_size
        assert p.chunk_offset + p.length <= stripe_size
        assert p.file_offset == p.chunk_index * stripe_size + p.chunk_offset
        pos += p.length
    assert pos == offset + length


def _fold(pieces):
    """Per-server (first offset, total bytes) of a slice list."""
    spans = {}
    for p in pieces:
        first, total = spans.get(p.server, (p.file_offset, 0))
        spans[p.server] = (min(first, p.file_offset), total + p.length)
    return spans


@st.composite
def _specs(draw):
    """A fresh spec (so its memos start empty)."""
    size = draw(st.integers(min_value=1, max_value=300))
    servers = tuple(f"s{i}" for i in range(draw(st.integers(2, 5))))
    return StripeSpec(size, servers)


@settings(max_examples=80)
@given(_specs(), st.lists(st.tuples(st.integers(0, 2000), st.integers(0, 2000)),
                          min_size=1, max_size=6))
def test_property_memoised_layouts_equal_the_pure_splitter(spec, ranges):
    """The memo oracle is the pure splitter, not a switch: first and
    memoised calls of both layout functions return what it returns."""
    for offset, length in ranges + ranges:  # second pass: memo hits
        pure = split_range(spec, offset, length)
        assert map_range(spec, offset, length) == pure
        # Key order included: servers in order of first appearance.
        assert (list(server_spans(spec, offset, length).items())
                == list(_fold(pure).items()))


def test_server_spans_miss_parks_no_slice_list():
    s = spec()
    spans = server_spans(s, 50, 300)
    # Only the aggregate is kept: nothing reads the slices on this path.
    assert "_range_memo" not in s.__dict__
    assert spans == _fold(map_range(s, 50, 300))
    # A fresh dict per call; the cached aggregate cannot be corrupted.
    spans["a"] = (0, 0)
    assert server_spans(s, 50, 300) == _fold(map_range(s, 50, 300))
    with pytest.raises(InvalidArgument):
        server_spans(s, -1, 10)
