"""Tests for unit constants and formatting helpers."""

from repro.units import GB, GiB, KiB, MB, MiB, MSEC, SEC, USEC, fmt_bw


class TestConstants:
    def test_binary_sizes(self):
        assert KiB == 1024
        assert MiB == 1024 ** 2
        assert GiB == 1024 ** 3

    def test_decimal_sizes(self):
        assert MB == 10 ** 6
        assert GB == 10 ** 9

    def test_times(self):
        assert USEC == 1e-6
        assert MSEC == 1e-3
        assert SEC == 1.0


class TestFormatting:
    def test_fmt_bw(self):
        assert fmt_bw(22 * GB) == "22.00 GB/s"
        assert fmt_bw(504 * MB) == "504.0 MB/s"
        assert fmt_bw(10_000) == "10.0 KB/s"
