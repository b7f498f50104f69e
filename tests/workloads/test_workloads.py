"""Tests for the workload generators, driven through a small cluster."""

import pytest

from repro.bb import Cluster, ClusterConfig, ServerConfig
from repro.core import JobInfo
from repro.errors import ConfigError
from repro.units import KiB, MB
from repro.workloads import (APP_PROFILES, AppProfile, ApplicationWorkload,
                             IORWorkload, IopsStat, IopsWriteRead, JobSpec,
                             MdtestWorkload, PinnedWriter, WriteReadCycle)


def run_workload(workload, seconds=1.0, policy="job-fair", n_servers=1,
                 stop=None, **server_kw):
    cfg = ClusterConfig(n_servers=n_servers, policy=policy,
                        server=ServerConfig(**server_kw) if server_kw
                        else ServerConfig())
    cluster = Cluster(cfg)
    cluster.fs.makedirs("/fs/wl")
    client = cluster.add_client(JobInfo(job_id=1, user="u", size=1))
    rng = cluster.rng.stream("wl")
    done = {"finished": False, "t": None}

    def proc():
        yield from workload.run_stream(cluster.engine, client, rng,
                                       "/fs/wl", 0, stop)
        done["finished"] = True
        done["t"] = cluster.engine.now

    cluster.engine.process(proc())
    cluster.run(until=seconds)
    cluster.finish_time = done["t"]
    return cluster, done["finished"]


class TestJobSpec:
    def test_info_roundtrip(self):
        spec = JobSpec(job_id=3, user="a", group="g", nodes=16, priority=2.0)
        info = spec.info()
        assert (info.job_id, info.size, info.priority) == (3, 16, 2.0)

    def test_invalid_nodes(self):
        with pytest.raises(ConfigError):
            JobSpec(job_id=1, user="a", nodes=0)

    @pytest.mark.parametrize("nodes", [float("nan"), float("inf")])
    def test_non_finite_nodes_rejected(self, nodes):
        # `nodes < 1` is False for NaN and +inf, so both once passed.
        with pytest.raises(ConfigError, match="nodes"):
            JobSpec(job_id=1, user="a", nodes=nodes)


class TestWriteReadCycle:
    def test_moves_equal_write_and_read_bytes(self):
        wl = WriteReadCycle(file_size=2 * MB)
        cluster, _ = run_workload(wl, seconds=0.2, stop=0.2)
        s = cluster.sampler
        wrote = sum(b for t, j, b, o in zip(s._times, s._jobs, s._bytes, s._ops)
                    if o == "write")
        read = sum(b for t, j, b, o in zip(s._times, s._jobs, s._bytes, s._ops)
                   if o == "read")
        assert wrote > 0
        assert abs(wrote - read) <= 2 * MB  # at most one cycle in flight

    def test_request_size_splits_cycles(self):
        wl = WriteReadCycle(file_size=4 * MB, request_size=MB)
        cluster, _ = run_workload(wl, seconds=0.05, stop=0.05)
        assert cluster.sampler.op_count(op="write") >= 4

    def test_stops_at_stop_time(self):
        wl = WriteReadCycle(file_size=MB)
        _, finished = run_workload(wl, seconds=1.0, stop=0.3)
        assert finished

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            WriteReadCycle(file_size=0)
        with pytest.raises(ConfigError):
            WriteReadCycle(file_size=10, request_size=20)


class TestIops:
    def test_iops_write_read_cycles_one_file(self):
        wl = IopsWriteRead(file_size=MB)
        cluster, _ = run_workload(wl, seconds=0.1, stop=0.1)
        assert cluster.sampler.op_count(op="write") > 2
        # One file created per stream.
        assert len(cluster.fs.readdir("/fs/wl")) == 1

    def test_iops_stat_hits_metadata_path(self):
        wl = IopsStat(name_space=100)
        cluster, _ = run_workload(wl, seconds=0.01, stop=0.01)
        assert cluster.sampler.op_count(op="stat") > 10
        assert cluster.sampler.total_bytes() == 0  # pure metadata

    def test_iops_stat_is_deterministic_per_seed(self):
        wl = IopsStat(name_space=100)
        c1, _ = run_workload(wl, seconds=0.005, stop=0.005)
        c2, _ = run_workload(wl, seconds=0.005, stop=0.005)
        assert c1.sampler.op_count(op="stat") == c2.sampler.op_count(op="stat")


class TestIOR:
    def test_write_mode_only_writes(self):
        wl = IORWorkload(file_size=4 * MB, block_size=MB, mode="write",
                         repeat=False)
        cluster, finished = run_workload(wl, seconds=1.0)
        assert finished
        assert cluster.sampler.op_count(op="write") == 4
        assert cluster.sampler.op_count(op="read") == 0

    def test_read_mode_prepopulates(self):
        wl = IORWorkload(file_size=4 * MB, block_size=MB, mode="read",
                         repeat=False)
        cluster, finished = run_workload(wl, seconds=1.0)
        assert finished
        assert cluster.sampler.total_bytes() == 4 * MB
        assert cluster.sampler.op_count(op="read") == 4

    def test_writeread_does_both(self):
        wl = IORWorkload(file_size=2 * MB, block_size=MB, mode="writeread",
                         repeat=False)
        cluster, finished = run_workload(wl, seconds=1.0)
        assert finished
        assert cluster.sampler.op_count(op="write") == 2
        assert cluster.sampler.op_count(op="read") == 2

    def test_invalid_mode(self):
        with pytest.raises(ConfigError):
            IORWorkload(mode="scribble")


class TestMdtest:
    def test_create_stat_unlink_churn(self):
        wl = MdtestWorkload(files_per_iteration=4)
        cluster, _ = run_workload(wl, seconds=0.01, stop=0.01)
        s = cluster.sampler
        assert s.op_count(op="open") >= 4
        assert s.op_count(op="stat") >= 4
        assert s.op_count(op="unlink") >= 4

    def test_files_cleaned_up(self):
        wl = MdtestWorkload(files_per_iteration=2)
        cluster, _ = run_workload(wl, seconds=0.5, stop=0.002)
        # After the run the directory has no leftover md- files beyond
        # possibly one partial iteration.
        leftovers = [f for f in cluster.fs.readdir("/fs/wl")
                     if f.startswith("md-")]
        assert len(leftovers) <= 2


class TestPinnedWriter:
    def test_writes_only_the_given_paths(self):
        wl = PinnedWriter(["/fs/pin/a"], request_size=MB)
        cluster, _ = run_workload(wl, seconds=0.05, stop=0.05)
        assert cluster.fs.exists("/fs/pin/a")
        assert cluster.sampler.total_bytes() > 0

    def test_needs_paths(self):
        with pytest.raises(ConfigError):
            PinnedWriter([])


class TestApplicationWorkload:
    def test_profiles_registry(self):
        assert set(APP_PROFILES) == {"namd", "wrf", "specfem3d", "resnet50",
                                     "bert"}

    def test_sync_variant(self):
        sync = APP_PROFILES["resnet50"].sync_variant()
        assert sync.async_depth == 0
        assert sync.name == "resnet50-sync"

    def test_invalid_profiles(self):
        with pytest.raises(ConfigError):
            AppProfile(name="x", nodes=1, steps=0, compute_per_step=0.1,
                       io_every=1, io_bytes=1, io_request=1)
        with pytest.raises(ConfigError):
            AppProfile(name="x", nodes=1, steps=1, compute_per_step=0.1,
                       io_every=1, io_bytes=1, io_request=1, io_op="write",
                       async_depth=2)

    def test_write_app_completes_and_moves_bytes(self):
        profile = AppProfile(name="mini", nodes=2, steps=4,
                             compute_per_step=0.01, io_every=2,
                             io_bytes=2 * MB, io_request=MB, io_op="write")
        wl = ApplicationWorkload(profile)
        cluster, finished = run_workload(wl, seconds=5.0)
        assert finished
        assert cluster.sampler.total_bytes() == 4 * MB  # two bursts

    def test_async_app_prefetches(self):
        profile = AppProfile(name="mini-async", nodes=1, steps=6,
                             compute_per_step=0.01, io_every=1,
                             io_bytes=MB, io_request=256 * KiB,
                             io_op="read", async_depth=2)
        wl = ApplicationWorkload(profile)
        cluster, finished = run_workload(wl, seconds=5.0)
        assert finished
        assert cluster.sampler.op_count(op="read") >= 6 * 4

    def test_compute_time_dominates_when_io_tiny(self):
        profile = AppProfile(name="cpu", nodes=1, steps=10,
                             compute_per_step=0.05, io_every=10,
                             io_bytes=MB, io_request=MB, io_op="write")
        wl = ApplicationWorkload(profile)
        cluster, finished = run_workload(wl, seconds=5.0)
        assert finished
        assert cluster.finish_time == pytest.approx(0.5, rel=0.2)
