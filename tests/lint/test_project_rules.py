"""DET007, the one rule that needs a cross-file fact, against the
``setesc`` fixture package: the set is made in ``helper.py`` and
iterated in ``consumer.py``."""

import ast
from pathlib import Path

from repro.lint import lint_source
from repro.lint.rules.det import set_returning_names

SETESC = Path(__file__).resolve().parent / "fixtures" / "setesc"


def det007_in_consumer():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(SETESC.glob("*.py"))}
    names = set_returning_names(ast.parse(src) for src in sources.values())
    assert names == {"changed_keys"}
    return sources["consumer.py"], lint_source(
        sources["consumer.py"], path="src/setesc/consumer.py",
        select=["DET007"], set_returning=names)


def test_det007_flags_bare_iteration_of_imported_set_helper():
    _source, findings = det007_in_consumer()
    assert len(findings) == 1, [f.render() for f in findings]
    assert "changed_keys" in findings[0].message


def test_det007_sorted_wrapper_stays_silent():
    source, findings = det007_in_consumer()
    sorted_line = next(i for i, line in
                       enumerate(source.splitlines(), 1)
                       if "sorted(" in line)
    assert all(f.line != sorted_line for f in findings)
