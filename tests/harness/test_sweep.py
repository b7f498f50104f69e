"""Sweep runner: spec expansion, caching, and the bit-identity contract
(serial == parallel == cache replay, byte for byte)."""

import json

import pytest

from repro.errors import ReproError
from repro.harness import sweep as sweepmod
from repro.harness.experiments import POINT_KINDS
from repro.harness.sweep import (BUILTIN_GRIDS, ParallelRunner, SweepSpec,
                                 load_spec, spec_from_doc)
from repro.harness.workspace import Workspace, canonical_json


class TestSpecExpansion:
    def test_axes_expand_sorted_outer_to_inner(self):
        spec = SweepSpec(name="t", kind="sharing", base={"z": 9},
                         axes={"b": [1, 2], "a": ["x", "y"]})
        # Sorted axis names: "a" expands first (outermost), then "b".
        assert spec.points() == [
            {"z": 9, "a": "x", "b": 1}, {"z": 9, "a": "x", "b": 2},
            {"z": 9, "a": "y", "b": 1}, {"z": 9, "a": "y", "b": 2}]

    def test_empty_axis_rejected(self):
        spec = SweepSpec(name="t", kind="sharing", axes={"a": []})
        with pytest.raises(ReproError):
            spec.points()

    def test_non_list_axis_rejected(self):
        spec = SweepSpec(name="t", kind="sharing", axes={"a": 3})
        with pytest.raises(ReproError):
            spec.points()

    def test_spec_doc_roundtrip(self):
        spec = BUILTIN_GRIDS["quick"]
        again = spec_from_doc({"name": spec.name, "kind": spec.kind,
                               "base": spec.base, "axes": spec.axes})
        assert again.points() == spec.points()

    def test_unknown_spec_key_rejected(self):
        with pytest.raises(ReproError, match="replicas"):
            spec_from_doc({"kind": "sharing", "replicas": 3})

    def test_load_spec_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"name": "t", "kind": "sharing",
                                    "base": {"seed": 1},
                                    "axes": {"policy": ["job-fair"]}}))
        spec = load_spec(str(path))
        assert spec.points() == [{"seed": 1, "policy": "job-fair"}]

    def test_load_spec_bad_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ReproError):
            load_spec(str(path))
        with pytest.raises(ReproError):
            load_spec(str(tmp_path / "absent.json"))

    def test_spec_without_kind_rejected(self):
        with pytest.raises(ReproError):
            spec_from_doc({"name": "t"})


def _fake_point(config):
    """Deterministic stand-in point function for runner tests."""
    return {"v": int(config["x"]) * 2}


class TestRunnerCaching:
    """Cache behaviour, exercised on a cheap monkeypatched point kind."""

    @pytest.fixture
    def echo_kind(self, monkeypatch):
        calls = []

        def run_point(kind, config):
            calls.append((kind, dict(config)))
            return _fake_point(config)

        monkeypatch.setitem(POINT_KINDS, "echo", _fake_point)
        monkeypatch.setattr(sweepmod, "run_point", run_point)
        return calls

    def test_unknown_kind_rejected(self):
        with pytest.raises(ReproError):
            ParallelRunner().run_points([("no-such-kind", {})])

    def test_jobs_one_degenerate_path(self, echo_kind):
        # No workspace, one worker: pure in-process computation.
        run = ParallelRunner(jobs=1).run_points(
            [("echo", {"x": 1}), ("echo", {"x": 2})])
        assert [p.result for p in run.points] == [{"v": 2}, {"v": 4}]
        assert run.hits == 0 and run.misses == 2
        assert len(echo_kind) == 2

    def test_hit_on_identical_config(self, echo_kind, tmp_path):
        ws = Workspace(str(tmp_path / "ws"))
        points = [("echo", {"x": 1}), ("echo", {"x": 2})]
        r1 = ParallelRunner(workspace=ws, rev="r").run_points(points)
        r2 = ParallelRunner(workspace=ws, rev="r").run_points(points)
        assert r1.misses == 2 and r1.hits == 0
        assert r2.misses == 0 and r2.hits == 2
        assert len(echo_kind) == 2  # second pass computed nothing
        assert canonical_json(r1.results_doc()) == \
            canonical_json(r2.results_doc())
        assert r1.digest() == r2.digest()

    def test_miss_on_config_change(self, echo_kind, tmp_path):
        ws = Workspace(str(tmp_path / "ws"))
        ParallelRunner(workspace=ws, rev="r").run_points(
            [("echo", {"x": 1})])
        run = ParallelRunner(workspace=ws, rev="r").run_points(
            [("echo", {"x": 3})])
        assert run.misses == 1
        assert len(echo_kind) == 2

    def test_miss_on_rev_change(self, echo_kind, tmp_path):
        ws = Workspace(str(tmp_path / "ws"))
        ParallelRunner(workspace=ws, rev="r1").run_points(
            [("echo", {"x": 1})])
        run = ParallelRunner(workspace=ws, rev="r2").run_points(
            [("echo", {"x": 1})])
        assert run.misses == 1  # same config, new code revision

    def test_rerun_invalidates(self, echo_kind, tmp_path):
        ws = Workspace(str(tmp_path / "ws"))
        points = [("echo", {"x": 1})]
        ParallelRunner(workspace=ws, rev="r").run_points(points)
        run = ParallelRunner(workspace=ws, rev="r").run_points(
            points, rerun=True)
        assert run.misses == 1
        assert len(echo_kind) == 2

    def test_corrupted_blob_recovered(self, echo_kind, tmp_path):
        ws = Workspace(str(tmp_path / "ws"))
        points = [("echo", {"x": 1})]
        r1 = ParallelRunner(workspace=ws, rev="r").run_points(points)
        with open(ws._blob_path(r1.points[0].key), "w") as fh:
            fh.write("{half a blob")
        run = ParallelRunner(workspace=ws, rev="r").run_points(points)
        assert run.misses == 1  # recomputed, not crashed
        assert run.points[0].result == {"v": 2}
        # ... and the store healed: next pass hits again.
        assert ParallelRunner(workspace=ws, rev="r").run_points(
            points).hits == 1

    def test_duplicate_keys_computed_once(self, echo_kind):
        run = ParallelRunner().run_points(
            [("echo", {"x": 1}), ("echo", {"x": 1})])
        assert len(echo_kind) == 1
        assert [p.result for p in run.points] == [{"v": 2}, {"v": 2}]

    def test_summary_fields(self, echo_kind, tmp_path):
        ws = Workspace(str(tmp_path / "ws"))
        run = ParallelRunner(workspace=ws, rev="r").run_points(
            [("echo", {"x": 1})])
        doc = run.to_summary()
        assert doc["points"] == 1 and doc["misses"] == 1
        assert doc["digest"] == run.digest()
        assert "hit-rate" in run.summary()


@pytest.mark.slow
class TestBitIdentity:
    """The committed serial == parallel == replay contract, end to end
    on real simulation points (spawned worker processes included)."""

    SPEC = SweepSpec(
        name="identity", kind="sharing",
        base={"nodes1": 2, "scale": 0.02, "n_servers": 1, "seed": 0},
        axes={"policy": ["job-fair", "size-fair"], "nodes2": [1, 2]})

    def test_serial_parallel_replay_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_REV", "bit-identity-test")
        ws = Workspace(str(tmp_path / "ws"))

        points = [(self.SPEC.kind, config) for config in self.SPEC.points()]
        serial = ParallelRunner(jobs=1).run_points(points)
        parallel = ParallelRunner(workspace=ws, jobs=4).run_points(points)
        replay = ParallelRunner(workspace=ws, jobs=1).run_points(points)

        assert serial.misses == 4 and parallel.misses == 4
        assert replay.hits == 4 and replay.misses == 0

        doc_serial = canonical_json(serial.results_doc())
        doc_parallel = canonical_json(parallel.results_doc())
        doc_replay = canonical_json(replay.results_doc())
        assert doc_serial == doc_parallel  # byte-for-byte
        assert doc_serial == doc_replay
        assert serial.digest() == parallel.digest() == replay.digest()
