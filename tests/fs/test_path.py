"""Tests for namespace path handling."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import InvalidArgument
from repro.fs import components, join, normalize, split


class TestNormalize:
    @pytest.mark.parametrize("raw,expected", [
        ("/", "/"),
        ("/fs", "/fs"),
        ("/fs/", "/fs"),
        ("//fs//a", "/fs/a"),
        ("/fs/./a", "/fs/a"),
        ("/fs/a/../b", "/fs/b"),
        ("/fs/a/b/../../c", "/fs/c"),
    ])
    def test_cases(self, raw, expected):
        assert normalize(raw) == expected

    def test_relative_rejected(self):
        with pytest.raises(InvalidArgument):
            normalize("fs/a")

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgument):
            normalize("")

    def test_escape_root_rejected(self):
        with pytest.raises(InvalidArgument):
            normalize("/..")
        with pytest.raises(InvalidArgument):
            normalize("/fs/../..")

    def test_idempotent(self):
        assert normalize(normalize("/a//b/./c")) == normalize("/a//b/./c")


class TestSplitJoin:
    def test_split(self):
        assert split("/fs/a/b") == ("/fs/a", "b")
        assert split("/fs") == ("/", "fs")

    def test_split_root_rejected(self):
        with pytest.raises(InvalidArgument):
            split("/")

    def test_join(self):
        assert join("/fs", "a", "b") == "/fs/a/b"
        assert join("/", "x") == "/x"

    def test_join_rejects_slash_in_component(self):
        with pytest.raises(InvalidArgument):
            join("/fs", "a/b")

    def test_components(self):
        assert components("/") == []
        assert components("/fs/a") == ["fs", "a"]


name_st = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Nd")),
    min_size=1, max_size=8)


@given(st.lists(name_st, min_size=1, max_size=5))
def test_property_split_join_roundtrip(parts):
    path = "/" + "/".join(parts)
    parent, name = split(path)
    assert join(parent, name) == normalize(path)


@given(st.lists(name_st, min_size=0, max_size=5))
def test_property_components_rebuild(parts):
    path = "/" + "/".join(parts)
    assert normalize(path) == "/" + "/".join(components(path)) if parts else "/"
