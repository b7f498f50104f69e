"""``scripts/perimeter.py``: a function line counts once, for the
innermost function around it, and ``--check`` fails on an uncalled
function off the keep-list and on a stale keep-list entry."""

import importlib.util
import json
import os
import shutil

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SCRIPT = os.path.join(_ROOT, "scripts", "perimeter.py")

MODULE = '''\
def parent():
    def nested():
        return 1
    return 2


parent()
'''


def test_nested_def_lines_count_once_and_only_for_the_nested_def(
        tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location("perimeter", _SCRIPT)
    perimeter = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(perimeter)
    monkeypatch.setattr(perimeter, "SRC", str(tmp_path) + os.sep)
    (tmp_path / "mod.py").write_text(MODULE)
    perimeter.report(perimeter.record(str(tmp_path / "out.json"),
                                      str(tmp_path / "mod.py"), []))
    rows = capsys.readouterr().out.splitlines()
    # parent spans lines 1-4, nested 2-3: four distinct lines, of which
    # the two of the never-called nested def are the only dead ones.
    assert rows[-3:] == ["(top)          2 /     4",
                         "total          2 /     4",
                         "  mod.py:2 nested (2)"]


STORE = '''\
class Store:
    def put(self):
        return 1

    def peek(self):
        return 2


Store().put()
'''


def _check(tmp_path, capsys, keep, module=STORE):
    """``check()`` of a copy of the script over a synthetic tree whose
    one root runs ``repro.mod``; returns (exit status, stdout lines)."""
    os.makedirs(tmp_path / "scripts", exist_ok=True)
    shutil.copy(_SCRIPT, tmp_path / "scripts" / "perimeter.py")
    package = tmp_path / "src" / "repro"
    package.mkdir(parents=True, exist_ok=True)
    (package / "__init__.py").write_text("")
    (package / "mod.py").write_text(module)
    (tmp_path / "PERIMETER_KEEP.json").write_text(json.dumps(keep))
    spec = importlib.util.spec_from_file_location(
        "perimeter_copy", tmp_path / "scripts" / "perimeter.py")
    copy = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(copy)
    copy.ROOTS = ((("-m", "repro.mod"),),)
    status = copy.check(jobs=1)
    return status, capsys.readouterr().out.splitlines()


def test_check_fails_on_an_uncalled_function_off_the_keep_list(
        tmp_path, capsys):
    status, out = _check(tmp_path, capsys, {})
    assert status == 1
    assert "never called, not on the keep-list: mod.py::Store.peek" in out
    assert out[-2].endswith("0 on the keep-list (0 entries), 2 outside it")


def test_check_passes_when_every_uncalled_function_is_kept(tmp_path, capsys):
    status, out = _check(tmp_path, capsys,
                         {"mod.py::Store.peek": "test hook"})
    assert status == 0
    assert out[-1] == "perimeter: ok"


@pytest.mark.parametrize("entry, problem", [
    ("mod.py::Store.put", "on the keep-list, but called: mod.py::Store.put"),
    ("mod.py::Store.gone",
     "on the keep-list, names no function: mod.py::Store.gone"),
])
def test_check_fails_on_a_stale_keep_list_entry(tmp_path, capsys, entry,
                                                problem):
    status, out = _check(tmp_path, capsys, {"mod.py::Store.peek": "test hook",
                                            entry: "test hook"})
    assert status == 1
    assert problem in out


def test_check_fails_on_a_reason_outside_the_vocabulary(tmp_path, capsys):
    status, out = _check(tmp_path, capsys, {"mod.py::Store.peek": "handy"})
    assert status == 1
    assert ("on the keep-list, unknown reason 'handy': mod.py::Store.peek"
            in out)


def test_keep_list_keys_survive_a_line_shift(tmp_path, capsys):
    """Keys name functions, not lines: code added above a kept function
    moves its lines and leaves the keep-list valid."""
    shifted = '"""A docstring."""\n\n\ndef helper():\n    return 0\n\n\n'
    status, out = _check(tmp_path, capsys, {"mod.py::Store.peek": "item 7"},
                         module=shifted + STORE + "helper()\n")
    assert status == 0, out
    assert "  mod.py:12 peek (2)" in out  # line 5 of STORE, 7 lines down


def test_committed_keep_list_names_functions_with_known_reasons():
    """The static half of ``--check``, cheap enough for tier-1: every
    ``PERIMETER_KEEP.json`` entry names a function in the tree and gives
    a reason from the vocabulary. (Whether it is still uncalled takes
    the full audit.)"""
    spec = importlib.util.spec_from_file_location("perimeter", _SCRIPT)
    perimeter = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(perimeter)
    with open(perimeter.KEEP) as fh:
        keep = json.load(fh)
    # Treat every entry as uncalled: only "names no function" and
    # "unknown reason" can then be reported.
    assert perimeter.problems(dict.fromkeys(keep, 0), keep) == []
