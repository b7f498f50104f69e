"""Tests for the evaluation statistics."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.metrics import (jain_index, median_nonzero, scaling_efficiency,
                           share_ratio, size_fair_bound, slowdown,
                           stddev_nonzero)


class TestMedianStd:
    def test_median_ignores_zero_bins(self):
        assert median_nonzero([0, 0, 10, 20, 30, 0]) == 20

    def test_median_all_zero(self):
        assert median_nonzero([0.0, 0.0]) == 0.0

    def test_stddev_nonzero(self):
        assert stddev_nonzero([0, 5, 5, 5]) == 0.0
        assert stddev_nonzero([0, 4, 8]) == pytest.approx(2.0)


class TestSizeFairBound:
    def test_paper_namd_example(self):
        # §5.5: 64-node NAMD vs 1-node background -> 1/65 ~ 1.5%.
        assert size_fair_bound(64) == pytest.approx(1 / 65)

    def test_paper_resnet_example(self):
        # 16-node ResNet vs 1-node background -> 1/17 ~ 5.9%.
        assert size_fair_bound(16) == pytest.approx(1 / 17)

    def test_invalid(self):
        with pytest.raises(ConfigError):
            size_fair_bound(0)


class TestSlowdown:
    def test_slowdown(self):
        assert slowdown(10.0, 16.0) == pytest.approx(0.6)
        assert slowdown(10.0, 10.0) == pytest.approx(0.0)

    def test_invalid(self):
        with pytest.raises(ConfigError):
            slowdown(0.0, 5.0)


class TestJain:
    def test_perfectly_even(self):
        assert jain_index([5, 5, 5, 5]) == pytest.approx(1.0)

    def test_maximally_unfair(self):
        assert jain_index([10, 0, 0, 0]) == pytest.approx(0.25)

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            jain_index([])

    def test_all_zero(self):
        assert jain_index([0, 0]) == 1.0


class TestScaling:
    def test_linear_scaling_is_one(self):
        eff = scaling_efficiency([10, 20, 40], [1, 2, 4])
        assert np.allclose(eff, 1.0)

    def test_sublinear(self):
        eff = scaling_efficiency([11.7, 77.1, 1017.0], [1, 8, 128])
        assert eff[1] == pytest.approx(0.82, abs=0.01)  # the paper's 82%
        assert eff[2] == pytest.approx(0.68, abs=0.01)  # the paper's 68%

    def test_invalid(self):
        with pytest.raises(ConfigError):
            scaling_efficiency([1, 2], [1])
        with pytest.raises(ConfigError):
            scaling_efficiency([0], [1])


class TestRatio:
    def test_share_ratio(self):
        assert share_ratio(17.4, 4.4) == pytest.approx(3.954, abs=0.01)

    def test_zero_denominator(self):
        with pytest.raises(ConfigError):
            share_ratio(1.0, 0.0)


@given(st.lists(st.floats(0.1, 100.0), min_size=1, max_size=20))
def test_property_jain_bounds(values):
    n = len(values)
    assert 1.0 / n - 1e-9 <= jain_index(values) <= 1.0 + 1e-9
