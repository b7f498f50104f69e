"""``scripts/perimeter.py``: a function line counts once, for the
innermost function around it."""

import importlib.util
import os

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
