"""Tests for the plain-text reporting helpers."""

from repro.harness import pct, table


class TestTable:
    def test_alignment_and_separator(self):
        out = table(("a", "long-header"), [(1, 2), (333, 4)])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "-+-" in lines[1]
        # All rows equally wide.
        assert len({len(line) for line in lines}) == 1

    def test_title(self):
        out = table(("x",), [(1,)], title="My Title")
        assert out.splitlines()[0] == "My Title"

    def test_float_formatting(self):
        out = table(("v",), [(3.14159,)])
        assert "3.14" in out


class TestScalars:
    def test_pct(self):
        assert pct(0.135) == "+13.5%"
        assert pct(-0.05) == "-5.0%"
        assert pct(0.5, signed=False) == "50.0%"
