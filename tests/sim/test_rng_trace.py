"""Tests for the named RNG registry."""

import numpy as np

from repro.sim import RngRegistry, stable_hash


class TestRng:
    def test_same_seed_same_stream(self):
        a = RngRegistry(seed=7).stream("tokens").random(5)
        b = RngRegistry(seed=7).stream("tokens").random(5)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngRegistry(seed=1).stream("tokens").random(5)
        b = RngRegistry(seed=2).stream("tokens").random(5)
        assert not np.array_equal(a, b)

    def test_streams_are_independent_by_name(self):
        reg = RngRegistry(seed=0)
        a = reg.stream("a").random(5)
        b = reg.stream("b").random(5)
        assert not np.array_equal(a, b)

    def test_stream_is_cached(self):
        reg = RngRegistry(seed=0)
        assert reg.stream("x") is reg.stream("x")

    def test_adding_consumer_does_not_perturb_existing(self):
        reg1 = RngRegistry(seed=3)
        first = reg1.stream("main").random(3)

        reg2 = RngRegistry(seed=3)
        reg2.stream("other").random(100)  # interleaved consumer
        second = reg2.stream("main").random(3)
        assert np.array_equal(first, second)

    def test_stable_hash_is_stable(self):
        assert stable_hash("abc") == stable_hash("abc")
        assert stable_hash("abc") != stable_hash("abd")
