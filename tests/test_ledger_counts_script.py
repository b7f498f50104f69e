"""``scripts/ledger_counts.py --update --only``: a re-record of the named
counts that cannot absorb a change to anything else."""

import importlib.util
import json
import os

import pytest

_SCRIPT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts", "ledger_counts.py")


@pytest.fixture
def script(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location("ledger_counts", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    committed = {"w": {"trace_digest": "aa", "sim.events": 10, "net.msgs": 4}}
    path = tmp_path / "LEDGER_COUNTS.json"
    path.write_text(json.dumps(committed))
    monkeypatch.setattr(module, "_COMMITTED", str(path))
    monkeypatch.setattr(module, "COUNTS", ("sim.events", "net.msgs"))
    return module, path


def _measured(script, **values):
    module, _path = script
    row = {"trace_digest": "aa", "sim.events": 10, "net.msgs": 4, **values}
    module.measure = lambda: {"w": row}


def test_only_rewrites_the_named_count(script):
    module, path = script
    _measured(script, **{"sim.events": 9})
    assert module.main([]) == 1                       # the plain gate fails
    assert module.main(["--update", "--only", "sim.events"]) == 0
    assert json.loads(path.read_text())["w"] == {
        "trace_digest": "aa", "sim.events": 9, "net.msgs": 4}
    assert module.main([]) == 0


@pytest.mark.parametrize("moved", [{"trace_digest": "bb"}, {"net.msgs": 5}])
def test_only_refuses_when_anything_else_moved(script, moved):
    module, path = script
    before = path.read_text()
    _measured(script, **{"sim.events": 9, **moved})
    assert module.main(["--update", "--only", "sim.events"]) == 1
    assert path.read_text() == before


def test_only_needs_update_and_a_known_count(script):
    module, _path = script
    _measured(script)
    for argv in (["--only", "sim.events"], ["--update", "--only", "digest"]):
        with pytest.raises(SystemExit):
            module.main(argv)


def test_only_records_a_count_new_to_the_file(script, monkeypatch):
    """A count just added to ``COUNTS`` is recorded by ``--only`` and
    leaves every committed value as it was."""
    module, path = script
    monkeypatch.setattr(module, "COUNTS",
                        ("sim.events", "net.msgs", "core.draws"))
    _measured(script, **{"core.draws": 7})
    assert module.main(["--update", "--only", "core.draws"]) == 0
    assert json.loads(path.read_text())["w"] == {
        "trace_digest": "aa", "sim.events": 10, "net.msgs": 4,
        "core.draws": 7}
    assert module.main([]) == 0
