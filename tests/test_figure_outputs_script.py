"""``scripts/figure_outputs.py``: the gate compares one digest per figure
with the committed file, and the committed file names every figure."""

import importlib.util
import json
import os

import pytest

from repro.harness.experiments import FIGURES

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SCRIPT = os.path.join(_ROOT, "scripts", "figure_outputs.py")


@pytest.fixture
def script(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("figure_outputs", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    path = tmp_path / "FIGURE_OUTPUTS.json"
    monkeypatch.setattr(module, "_COMMITTED", str(path))
    tables = {"a": b"table a\n", "b": b"table b\n"}
    monkeypatch.setattr(
        module, "_repro",
        lambda *argv: (" ".join(tables).encode() if argv == ("figures",)
                       else tables[argv[1]]))
    return module, path, tables


def test_update_then_gate_then_a_moved_figure(script, capsys):
    module, path, tables = script
    assert module.main(["--update"]) == 0
    assert sorted(json.loads(path.read_text())) == ["a", "b"]
    assert module.main(["--jobs", "2"]) == 0
    tables["b"] = b"table b, one cell moved\n"
    assert module.main([]) == 1
    out = capsys.readouterr().out
    assert "FIGURE MISMATCH b:" in out and "FIGURE MISMATCH a" not in out


def test_a_figure_missing_on_either_side_is_a_mismatch(script):
    module, path, tables = script
    module.main(["--update"])
    tables["c"] = b"a new figure\n"
    assert module.main([]) == 1
    del tables["c"], tables["a"]
    assert module.main([]) == 1


def test_runs_each_figure_at_the_recorded_flags(script, monkeypatch):
    module, _path, _tables = script
    calls = []
    monkeypatch.setattr(module, "_repro",
                        lambda *argv: calls.append(argv) or b"")
    module.digest("outage")
    assert calls == [("figure", "outage", "--scale", "0.05", "--seed", "3")]


def test_committed_file_names_every_figure():
    with open(os.path.join(_ROOT, "FIGURE_OUTPUTS.json")) as fh:
        assert sorted(json.load(fh)) == sorted(FIGURES)
