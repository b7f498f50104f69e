"""The harness-level availability scenario (ISSUE 2 acceptance)."""

import pytest

from repro.harness import FIGURES, run_experiment
from repro.harness.experiments import outage_row, outage_scenario

from .conftest import assert_all_gather_state


def _run():
    return run_experiment(outage_scenario(
        n_jobs=3, n_servers=2, duration=4.0, crash_at=1.5, restart_at=2.5,
        seed=0))


@pytest.fixture(scope="module")
def result():
    """One shared availability run (module-scoped: it is the slow part),
    kept live so the tests can look at the cluster behind the row the
    ``"outage"`` figure would print."""
    return _run()


@pytest.fixture(scope="module")
def outage(result):
    return outage_row(result)


class TestAvailabilityScenario:
    def test_run_completes_without_deadlock(self, result, outage):
        assert outage["end_time"] == result.end_time <= 5.0 + 1e-9

    def test_crash_and_recovery_happened(self, result, outage):
        stats = result.cluster.fault_stats
        assert stats.server_crashes == 1
        assert stats.server_recoveries == 1
        assert stats.rpc_timeouts > 0
        assert stats.retries > 0
        assert outage["counters"] == stats.snapshot()

    def test_no_request_is_lost_with_infinite_retries(self, outage):
        assert outage["counters"]["requests_failed"] == 0

    def test_recovery_time_is_short(self, outage):
        # The crashed server serves again within a few client-timeout
        # periods of its restart.
        assert outage["recovery_time"] is not None
        assert outage["recovery_time"] < 1.5

    def test_fairness_returns_after_rejoin(self, outage):
        assert outage["jain_before"] > 0.9
        # Acceptance: Jain within 5% of the pre-crash level after rejoin.
        assert outage["jain_after"] >= outage["jain_before"] - 0.05

    def test_report_renders(self, outage):
        text = FIGURES["outage"].report([outage])
        assert "recovery time" in text
        assert "Jain" in text
        assert "[1.50s, 2.50s)" in text


class TestAvailabilityScenarioEquivalence:
    """The same run judged by the pure all-gather reference and by
    same-seed repeatability."""

    def test_availability_tables_equal_all_gather_after_restart(self,
                                                                result):
        assert_all_gather_state(result.cluster)

    def test_availability_trace_identical_for_the_same_seed(self, result):
        def trace(run):
            s = run.cluster.sampler
            return (list(zip(s._times, s._jobs, s._bytes, s._ops)),
                    outage_row(run))

        assert trace(result) == trace(_run())
