"""Quality gate: README.md, DESIGN.md and EXPERIMENTS.md name nothing
that is not there.

Every backticked ``src/``, ``tests/``, ``scripts/``, ``shapes/`` or
``examples/`` path (globs and ``::Test`` suffixes allowed), every
dotted ``repro.<package>`` name and every backticked ``Class.member``
of a class the package defines must exist in the tree.
"""

import glob
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

from tests.test_docstrings import iter_modules

ROOT = Path(__file__).resolve().parent.parent
_PATH = re.compile(r"`((?:src|tests|scripts|shapes|examples)/[^`\s]*)`")
_MODULE = re.compile(r"\brepro(?:\.[a-z_][a-z0-9_]*)+")
_MEMBER = re.compile(r"`([A-Z]\w*)\.(\w+)")


def _classes():
    """Class name -> class, over every module of the package."""
    return {name: obj for module in iter_modules()
            for name, obj in vars(module).items() if inspect.isclass(obj)}


def missing_references(text):
    """Paths, ``repro.*`` names and ``Class.member`` names in *text*
    that do not resolve, sorted."""
    missing = set()
    for path in _PATH.findall(text):
        if not glob.glob(str(ROOT / path.split("::")[0])):
            missing.add(path)
    for name in _MODULE.findall(text):
        try:
            pkgutil.resolve_name(name)
        except (ImportError, AttributeError):
            missing.add(name)
    classes = _classes()
    for owner, member in _MEMBER.findall(text):
        cls = classes.get(owner)
        if cls is None:
            continue
        try:
            inspect.getattr_static(cls, member)
        except AttributeError:
            # Instance attributes live in ``__init__``, not on the class.
            if not re.search(rf"self\.{member}\b", inspect.getsource(cls)):
                missing.add(f"{owner}.{member}")
    return sorted(missing)


@pytest.mark.parametrize("doc", ["README.md", "DESIGN.md",
                                 "EXPERIMENTS.md"])
def test_docs_name_only_what_exists(doc):
    assert missing_references((ROOT / doc).read_text()) == []


def test_a_reference_to_a_deleted_module_or_file_is_caught():
    text = (ROOT / "DESIGN.md").read_text() + (
        "\n- `repro.batch` replays `examples/cluster_simulation.py`\n")
    assert missing_references(text) == [
        "examples/cluster_simulation.py", "repro.batch"]
