"""Quality gate: the ledger counts spans that exist.

``ledger/worker.py`` reports per-layer call counts as
``tracer.calls(layer, *qualnames)``, and the tracer matches a span by its
code object's ``co_qualname``. A rename in ``src/`` would silently turn
such a count into 0, so every name the worker asks for must be a
function defined in a module of ``repro.<layer>``. The worker is read by
AST, never imported or edited.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "ledger" / "worker.py"
SRC = ROOT / "src" / "repro"


def span_names(source):
    """``(layer, qualname)`` of every ``tracer.calls`` argument in
    *source*, in order."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "calls"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "tracer"):
            layer, *callees = [arg.value for arg in node.args]
            names.extend((layer, callee) for callee in callees)
    return names


def _collect(body, prefix, out):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out.add(prefix + node.name)
            _collect(node.body, f"{prefix}{node.name}.<locals>.", out)
        elif isinstance(node, ast.ClassDef):
            _collect(node.body, f"{prefix}{node.name}.", out)


def defined_qualnames(layer):
    """The qualname of every function defined in ``repro.<layer>``."""
    out = set()
    for path in sorted((SRC / layer).rglob("*.py")):
        _collect(ast.parse(path.read_text()).body, "", out)
    return out


def missing_spans(source):
    """The ``tracer.calls`` names in *source* that ``src/`` lacks."""
    defined = {}
    return [(layer, name) for layer, name in span_names(source)
            if name not in defined.setdefault(layer,
                                              defined_qualnames(layer))]


def test_every_ledger_span_name_is_a_defined_function():
    source = WORKER.read_text()
    assert ("core", "placement_shares") in span_names(source)
    assert missing_spans(source) == []


def test_a_renamed_span_is_caught():
    source = WORKER.read_text().replace(
        '"JobStatusTable.merge"', '"JobStatusTable.merge_remote"')
    assert missing_spans(source) == [("core", "JobStatusTable.merge_remote")]
