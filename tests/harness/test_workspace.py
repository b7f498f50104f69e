"""Content-addressed workspace store: keys, atomicity, self-healing."""

import importlib.util
import json
import os
import shutil
import subprocess

import pytest

import repro.harness.workspace as workspace_module

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

    def test_changes_with_cell(self):
        assert point_key("k1", {"a": 1}, "r") != point_key("k2", {"a": 1}, "r")


class TestCodeRev:
    def test_env_override_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_REV", "pinned-rev")
        assert code_rev() == "pinned-rev"

    def test_unpinned_is_nonempty(self, monkeypatch):
        monkeypatch.delenv("REPRO_CODE_REV", raising=False)
        assert code_rev()

    def test_each_uncommitted_state_has_its_own_rev(self, tmp_path,
                                                    monkeypatch):
        """Two different uncommitted edits of one revision must not share
        a store key: a point computed before the second edit would be
        replayed after it."""
        monkeypatch.delenv("REPRO_CODE_REV", raising=False)
        package = tmp_path / "repro"
        (package / "harness").mkdir(parents=True)
        shutil.copy(workspace_module.__file__,
                    package / "harness" / "workspace.py")
        model = package / "model.py"
        model.write_text("RATE = 1\n")

        def git(*args):
            subprocess.run(["git", "-c", "user.name=t", "-c",
                            "user.email=t@example.com", *args],
                           cwd=tmp_path, check=True, capture_output=True)

        git("init", "-q")
        git("add", ".")
        git("commit", "-q", "-m", "base")
        spec = importlib.util.spec_from_file_location(
            "copied_workspace", package / "harness" / "workspace.py")
        copy = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(copy)

        clean = copy.code_rev()
        model.write_text("RATE = 2\n")
        first = copy.code_rev()
        model.write_text("RATE = 3\n")
        second = copy.code_rev()
        model.write_text("RATE = 2\n")
        assert "-" not in clean
        assert first.startswith(f"{clean}-dirty-")
        assert second.startswith(f"{clean}-dirty-")
        assert first != second
        assert copy.code_rev() == first
        model.write_text("RATE = 1\n")
        assert copy.code_rev() == clean

    def test_untracked_and_binary_edits_have_their_own_rev(self, tmp_path,
                                                           monkeypatch):
        """A new module the code may import, and each edit of a binary
        tracked file, change the key; untracked files outside the
        package (a workspace directory, say) do not."""
        monkeypatch.delenv("REPRO_CODE_REV", raising=False)
        package = tmp_path / "repro"
        (package / "harness").mkdir(parents=True)
        shutil.copy(workspace_module.__file__,
                    package / "harness" / "workspace.py")
        table = package / "table.bin"
        table.write_bytes(b"\0\1")

        def git(*args):
            subprocess.run(["git", "-c", "user.name=t", "-c",
                            "user.email=t@example.com", *args],
                           cwd=tmp_path, check=True, capture_output=True)

        git("init", "-q")
        git("add", ".")
        git("commit", "-q", "-m", "base")
        spec = importlib.util.spec_from_file_location(
            "copied_workspace", package / "harness" / "workspace.py")
        copy = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(copy)

        clean = copy.code_rev()
        (tmp_path / "ws").mkdir()
        (tmp_path / "ws" / "point.json").write_text("{}\n")
        assert copy.code_rev() == clean
        (package / "extra.py").write_text("RATE = 1\n")
        one = copy.code_rev()
        (package / "extra.py").write_text("RATE = 2\n")
        two = copy.code_rev()
        (package / "extra.py").unlink()
        table.write_bytes(b"\0\2")
        three = copy.code_rev()
        table.write_bytes(b"\0\3")
        four = copy.code_rev()
        revs = [clean, one, two, three, four]
        assert len(set(revs)) == len(revs)


class TestStore:
    def _put(self, ws, config, result=None, cell="k", rev="r"):
        key = point_key(cell, config, rev)
        ws.put(key, cell, config, result or {"v": 1}, rev)
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
            json.dump({"key": key, "cell": "k"}, fh)
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
