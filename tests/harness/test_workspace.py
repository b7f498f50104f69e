"""Content-addressed workspace store: keys, atomicity, self-healing."""

import json
import os

import pytest

from repro.harness.workspace import (SCHEMA_VERSION, Workspace,
                                     canonical_json, code_rev,
                                     content_digest, point_key)


class TestCanonicalJson:
    def test_dict_order_invariant(self):
        assert canonical_json({"a": 1, "b": 2}) == \
            canonical_json({"b": 2, "a": 1})

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})

    def test_digest_tracks_content(self):
        assert content_digest({"x": 1}) == content_digest({"x": 1})
        assert content_digest({"x": 1}) != content_digest({"x": 2})


class TestPointKey:
    def test_stable_across_config_insertion_order(self):
        assert point_key("k", {"a": 1, "b": 2}, "r") == \
            point_key("k", {"b": 2, "a": 1}, "r")

    def test_changes_with_config(self):
        assert point_key("k", {"a": 1}, "r") != point_key("k", {"a": 2}, "r")

    def test_changes_with_rev(self):
        assert point_key("k", {"a": 1}, "r1") != \
            point_key("k", {"a": 1}, "r2")

    def test_changes_with_kind(self):
        assert point_key("k1", {"a": 1}, "r") != point_key("k2", {"a": 1}, "r")


class TestCodeRev:
    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_REV", "pinned-rev")
        assert code_rev() == "pinned-rev"

    def test_unpinned_is_nonempty(self, monkeypatch):
        monkeypatch.delenv("REPRO_CODE_REV", raising=False)
        assert code_rev()


class TestStore:
    def _put(self, ws, config, result=None, kind="k", rev="r"):
        key = point_key(kind, config, rev)
        ws.put(key, kind, config, result or {"v": 1}, rev, wall_s=0.25)
        return key

    def test_put_get_roundtrip(self, tmp_path):
        ws = Workspace(str(tmp_path / "ws"))
        key = self._put(ws, {"x": 1}, {"v": 42})
        blob = ws.get(key)
        assert blob["result"] == {"v": 42}
        assert blob["config"] == {"x": 1}
        assert blob["meta"]["rev"] == "r"
        assert blob["meta"]["schema"] == SCHEMA_VERSION

    def test_miss_returns_none(self, tmp_path):
        ws = Workspace(str(tmp_path / "ws"))
        assert ws.get("0" * 32) is None

    def test_reopen_sees_stored_points(self, tmp_path):
        root = str(tmp_path / "ws")
        ws = Workspace(root)
        key = self._put(ws, {"x": 1})
        ws2 = Workspace(root)
        assert ws2.get(key)["result"] == {"v": 1}

    def test_corrupt_blob_is_miss_and_healed(self, tmp_path):
        ws = Workspace(str(tmp_path / "ws"))
        key = self._put(ws, {"x": 1})
        with open(ws._blob_path(key), "w") as fh:
            fh.write("{not json")
        assert ws.get(key) is None
        assert not os.path.exists(ws._blob_path(key))  # deleted on read
        self._put(ws, {"x": 1})  # store recovers by recomputation
        assert ws.get(key) is not None

    def test_blob_missing_fields_discarded(self, tmp_path):
        ws = Workspace(str(tmp_path / "ws"))
        key = self._put(ws, {"x": 1})
        with open(ws._blob_path(key), "w") as fh:
            json.dump({"key": key, "kind": "k"}, fh)
        assert ws.get(key) is None

    def test_blob_key_mismatch_discarded(self, tmp_path):
        ws = Workspace(str(tmp_path / "ws"))
        key = self._put(ws, {"x": 1})
        blob = ws.get(key)
        other = point_key("k", {"x": 2}, "r")
        with open(ws._blob_path(other), "w") as fh:
            json.dump(blob, fh)  # embedded key says `key`, file says `other`
        assert ws.get(other) is None

    def test_no_temp_files_left_behind(self, tmp_path):
        root = str(tmp_path / "ws")
        ws = Workspace(root)
        for i in range(4):
            self._put(ws, {"x": i})
        leftovers = [name for _dir, _subdirs, names in os.walk(root)
                     for name in names if name.startswith(".tmp-")]
        assert leftovers == []

    def test_discard_drops_the_blob(self, tmp_path):
        ws = Workspace(str(tmp_path / "ws"))
        key = self._put(ws, {"x": 1})
        assert ws.discard(key)
        assert ws.get(key) is None
        assert not os.path.exists(ws._blob_path(key))
        assert not ws.discard(key)
