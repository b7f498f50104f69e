"""Tests for the plain-text reporting helpers."""

from repro.harness import pct, ratio, sparkline, table


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

    def test_ratio(self):
        assert ratio(3.957) == "3.96x"


class TestSparkline:
    def test_shape_reflects_magnitudes(self):
        out = sparkline([0.0, 0.5, 1.0], width=3, ceiling=1.0)
        assert len(out) == 3
        assert out[0] == " " and out[-1] == "█"

    def test_resamples_long_series(self):
        out = sparkline(list(range(1000)), width=40)
        assert len(out) == 40

    def test_empty(self):
        assert sparkline([]) == ""

    def test_ceiling_pins_scale(self):
        half = sparkline([5.0], width=1, ceiling=10.0)
        full = sparkline([5.0], width=1, ceiling=5.0)
        assert half != full and full == "█"

    def test_all_zero_safe(self):
        assert sparkline([0.0, 0.0], width=2) == "  "
