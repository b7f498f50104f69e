"""Tests for experiment configuration and the runner."""

import pytest

from repro.bb import ClusterConfig, ServerConfig
from repro.errors import ConfigError
from repro.harness import ExperimentConfig, JobRun, run_experiment
from repro.units import MB
from repro.workloads import JobSpec, WriteReadCycle


def spec(jid, nodes=1, user=None):
    return JobSpec(job_id=jid, user=user or f"u{jid}", nodes=nodes)


def small_cycle():
    return WriteReadCycle(file_size=MB, streams_per_node=2)


class TestConfig:
    def test_needs_jobs(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(jobs=[])

    def test_duplicate_job_ids_rejected(self):
        jobs = [JobRun(spec=spec(1), workload=small_cycle(), stop=1.0),
                JobRun(spec=spec(1), workload=small_cycle(), stop=1.0)]
        with pytest.raises(ConfigError):
            ExperimentConfig(jobs=jobs)

    def test_stop_before_start_rejected(self):
        with pytest.raises(ConfigError):
            JobRun(spec=spec(1), workload=small_cycle(), start=5.0, stop=1.0)

    def test_client_nodes_defaults_to_capped_nodes(self):
        assert JobRun(spec=spec(1, nodes=64), workload=small_cycle()).n_clients == 8
        assert JobRun(spec=spec(1, nodes=2), workload=small_cycle()).n_clients == 2
        run = JobRun(spec=spec(1, nodes=64), workload=small_cycle(),
                     client_nodes=4)
        assert run.n_clients == 4

    @pytest.mark.parametrize("build", [
        lambda: ServerConfig(sync_timeout=-1),
        lambda: ServerConfig(sync_processing_time=-1),
        lambda: ServerConfig(client_pool_workers=0),
        lambda: JobRun(spec=spec(1), workload=small_cycle(), client_nodes=0),
        lambda: ExperimentConfig(
            jobs=[JobRun(spec=spec(1), workload=small_cycle())],
            sample_interval=0),
        lambda: ClusterConfig(stripe_size=0),
        lambda: ClusterConfig(storage_backend="nope"),
    ], ids=["sync_timeout", "sync_processing_time", "client_pool_workers",
            "client_nodes", "sample_interval", "stripe_size",
            "storage_backend"])
    def test_bad_values_rejected_at_construction(self, build):
        """Values that reach a run from CLI flags or a sweep-spec JSON
        fail where they enter, not where they are first used."""
        with pytest.raises(ConfigError):
            build()


class TestRunner:
    def test_open_ended_job_runs_until_stop(self):
        cfg = ExperimentConfig(
            cluster=ClusterConfig(n_servers=1, policy="job-fair"),
            jobs=[JobRun(spec=spec(1), workload=small_cycle(), stop=0.5)],
            max_time=2.0, sample_interval=0.1)
        result = run_experiment(cfg)
        outcome = result.outcomes[1]
        assert outcome.finished
        assert 0.5 <= outcome.end < 1.0
        assert outcome.bytes_moved > 0
        assert outcome.streams == 2

    def test_delayed_start(self):
        cfg = ExperimentConfig(
            cluster=ClusterConfig(n_servers=1, policy="job-fair"),
            jobs=[JobRun(spec=spec(1), workload=small_cycle(),
                         start=0.3, stop=0.6)],
            max_time=2.0, sample_interval=0.1)
        result = run_experiment(cfg)
        series_times, series_vals = result.series(1)
        # No throughput before the start time.
        assert all(v == 0 for t, v in zip(series_times, series_vals)
                   if t < 0.25)

    def test_early_stop_when_finite_jobs_finish(self):
        # A run-to-completion job plus an open-ended background job:
        # the simulation must end shortly after the finite job does.
        from repro.workloads import ApplicationWorkload, AppProfile
        profile = AppProfile(name="quick", nodes=1, steps=3,
                             compute_per_step=0.05, io_every=1,
                             io_bytes=MB, io_request=MB, io_op="write")
        cfg = ExperimentConfig(
            cluster=ClusterConfig(n_servers=1, policy="job-fair"),
            jobs=[
                JobRun(spec=spec(1), workload=ApplicationWorkload(profile)),
                JobRun(spec=spec(2), workload=small_cycle(), stop=99.0),
            ],
            max_time=100.0, sample_interval=0.1)
        result = run_experiment(cfg)
        assert result.outcomes[1].finished
        assert result.end_time < 5.0  # nowhere near max_time

    def test_time_to_solution_requires_finish(self):
        cfg = ExperimentConfig(
            cluster=ClusterConfig(n_servers=1, policy="job-fair"),
            jobs=[JobRun(spec=spec(1), workload=small_cycle(), stop=50.0)],
            max_time=0.2, sample_interval=0.1,
            stop_when_jobs_finish=False)
        result = run_experiment(cfg)
        with pytest.raises(ConfigError):
            result.time_to_solution(1)

    def test_a_job_without_a_stop_needs_an_explicit_horizon(self):
        """``scenario`` used to give such a job a silent 1.0 s horizon
        (``max(stop or 0) + 1``): the run ended with the job unfinished
        and ``time_to_solution`` raised long after the cause."""
        from repro.harness import scenario
        from repro.workloads import NAMD, ApplicationWorkload
        jobs = [JobRun(spec=spec(1, nodes=NAMD.nodes),
                       workload=ApplicationWorkload(NAMD), client_nodes=4)]
        with pytest.raises(ConfigError, match="horizon"):
            scenario("fifo", jobs)
        assert scenario("fifo", jobs, horizon=40.0).max_time == 40.0
        timed = [JobRun(spec=spec(1), workload=small_cycle(), stop=0.5)]
        assert scenario("fifo", timed).max_time == 1.5

    def test_two_jobs_share_metrics_are_separable(self):
        cfg = ExperimentConfig(
            cluster=ClusterConfig(n_servers=1, policy="job-fair"),
            jobs=[JobRun(spec=spec(1), workload=small_cycle(), stop=0.4),
                  JobRun(spec=spec(2), workload=small_cycle(), stop=0.4)],
            max_time=1.0, sample_interval=0.1)
        result = run_experiment(cfg)
        b1 = result.sampler.total_bytes(1)
        b2 = result.sampler.total_bytes(2)
        assert b1 > 0 and b2 > 0
        assert result.sampler.total_bytes() == b1 + b2
