"""Tests for throughput sampling and binning."""

import pytest

from repro.metrics import ThroughputSampler


@pytest.fixture
def sampler():
    s = ThroughputSampler()
    # job 1: 100 B at t=0.5, 1.5, 2.5 ; job 2: 50 B at t=1.2
    s.record(0.5, 1, 100, "write")
    s.record(1.2, 2, 50, "read")
    s.record(1.5, 1, 100, "write")
    s.record(2.5, 1, 100, "read")
    return s


class TestRecording:
    def test_len(self, sampler):
        assert len(sampler) == 4

    def test_job_ids(self, sampler):
        assert sampler.job_ids() == [1, 2]

    def test_total_bytes(self, sampler):
        assert sampler.total_bytes() == 350
        assert sampler.total_bytes(1) == 300
        assert sampler.total_bytes(2) == 50
        assert sampler.total_bytes(99) == 0

    def test_op_count(self, sampler):
        assert sampler.op_count() == 4
        assert sampler.op_count(op="write") == 2
        assert sampler.op_count(job_id=1, op="read") == 1


class TestSeries:
    def test_one_second_bins(self, sampler):
        times, rates = sampler.series(interval=1.0, start=0.0, end=3.0)
        assert list(times) == [0.0, 1.0, 2.0]
        assert list(rates) == [100.0, 150.0, 100.0]

    def test_per_job_series(self, sampler):
        _, rates = sampler.series(2, interval=1.0, start=0.0, end=3.0)
        assert list(rates) == [0.0, 50.0, 0.0]

    def test_interval_scaling(self, sampler):
        _, rates = sampler.series(interval=0.5, start=0.0, end=3.0)
        # 100 B in a 0.5 s bin = 200 B/s
        assert rates[1] == 200.0

    def test_empty_sampler_series(self):
        s = ThroughputSampler()
        times, rates = s.series(interval=1.0)
        assert len(times) == 1 and rates[0] == 0.0

    def test_window_throughput(self, sampler):
        assert sampler.window_throughput(0.0, 2.0) == pytest.approx(125.0)
        assert sampler.window_throughput(0.0, 2.0, job_id=2) == pytest.approx(25.0)
        assert sampler.window_throughput(2.0, 2.0) == 0.0


class TestIncrementalAggregatesMatchBruteForce:
    """The O(1)/O(log n) counters must agree with a full record scan."""

    @staticmethod
    def _generate(seed=17, n=3000):
        import random

        rng = random.Random(seed)
        sampler = ThroughputSampler()
        records = []
        t = 0.0
        for _ in range(n):
            t += rng.random() * 0.01  # nondecreasing completion times
            job = rng.randrange(8)
            nbytes = rng.randrange(1, 1 << 20)
            op = rng.choice(["read", "write", "meta"])
            sampler.record(t, job, nbytes, op)
            records.append((t, job, nbytes, op))
        return sampler, records

    def test_total_bytes_matches_scan(self):
        sampler, records = self._generate()
        assert sampler.total_bytes() == sum(r[2] for r in records)
        for job in range(9):  # includes one never-seen job id
            assert sampler.total_bytes(job) == sum(
                r[2] for r in records if r[1] == job)

    def test_op_count_matches_scan(self):
        sampler, records = self._generate()
        assert sampler.op_count() == len(records)
        for job in (None, 0, 3, 7):
            for op in (None, "read", "write", "meta"):
                expected = sum(1 for r in records
                               if (job is None or r[1] == job)
                               and (op is None or r[3] == op))
                assert sampler.op_count(job, op) == expected

    def test_window_throughput_matches_scan(self):
        import random

        sampler, records = self._generate()
        rng = random.Random(99)
        t_end = records[-1][0]
        for _ in range(100):
            t0 = rng.random() * t_end
            t1 = t0 + rng.random() * (t_end - t0)
            job = rng.choice([None, 0, 2, 5, 8])
            expected = sum(r[2] for r in records
                           if t0 <= r[0] < t1
                           and (job is None or r[1] == job))
            expected = expected / (t1 - t0) if t1 > t0 else 0.0
            got = sampler.window_throughput(t0, t1, job_id=job)
            assert got == pytest.approx(expected), (t0, t1, job)
