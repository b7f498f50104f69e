"""Unit tests for the semantic model in ``repro.lint.graph``."""

import ast
import textwrap

import pytest

from repro.lint.core import Module
from repro.lint.graph import (FileSummary, ProjectIndex,
                              module_dotted_name, summarize_module)


def make_pkg(tmp_path, pkg, **modules):
    """Write a real package dir (with __init__.py) and return its
    per-module summaries keyed by module file stem."""
    pkg_dir = tmp_path / pkg
    pkg_dir.mkdir(parents=True, exist_ok=True)
    (pkg_dir / "__init__.py").write_text("")
    out = {}
    for stem, source in modules.items():
        source = textwrap.dedent(source)
        path = pkg_dir / f"{stem}.py"
        path.write_text(source)
        module = Module(path=str(path), source=source,
                        tree=ast.parse(source), scope="src")
        out[stem] = summarize_module(module)
    return out


def test_module_dotted_name_walks_init_chain(tmp_path):
    inner = tmp_path / "outer" / "inner"
    inner.mkdir(parents=True)
    (tmp_path / "outer" / "__init__.py").write_text("")
    (inner / "__init__.py").write_text("")
    (inner / "mod.py").write_text("")
    assert module_dotted_name(str(inner / "mod.py")) == "outer.inner.mod"
    # no __init__.py above `outer` => chain stops there
    (tmp_path / "loose.py").write_text("")
    assert module_dotted_name(str(tmp_path / "loose.py")) == "loose"


def test_send_site_extraction(tmp_path):
    s = make_pkg(tmp_path, "p", a="""
        class C:
            def go(self, rpc, host):
                rpc.call("sync", {"kind": "pull", "host": host})
    """)["a"]
    fn = s.functions["p.a:C.go"]
    assert len(fn.sends) == 1
    site = fn.sends[0]
    assert site.op == "sync"
    assert site.kind == "pull" and not site.kind_dynamic
    assert set(site.keys) == {"kind", "host"}


def test_dispatch_chain_recorded_once(tmp_path):
    s = make_pkg(tmp_path, "p", h="""
        class H:
            def handle(self, rpc):
                kind = rpc.body.get("kind")
                if kind == "a":
                    self.on_a(rpc.body["x"])
                elif kind == "b":
                    self.on_b()
                else:
                    self.fallback(rpc.body["y"])
    """)["h"]
    fn = s.functions["p.h:H.handle"]
    kinds = [br.kind for br in fn.dispatches]
    assert kinds == ["a", "b", None]
    by_kind = {br.kind: br for br in fn.dispatches}
    assert by_kind["a"].required == ["x"]
    assert by_kind[None].required == ["y"]


def test_resolution_self_method_import_and_unresolved(tmp_path):
    mods = make_pkg(tmp_path, "p",
                    util="""
        def helper():
            return 1
    """,
                    main="""
        from .util import helper

        class C:
            def entry(self):
                self.step()
                helper()
                self.missing_method()
                unknown_fn()

            def step(self):
                return 2
    """)
    index = ProjectIndex(mods.values())
    fn = index.functions["p.main:C.entry"]
    assert index.resolve_call(fn, "self.step") == "p.main:C.step"
    assert index.resolve_call(fn, "helper") == "p.util:helper"
    assert index.resolve_call(fn, "self.missing_method") is None
    assert index.resolve_call(fn, "unknown_fn") is None


def test_resolution_through_base_class(tmp_path):
    mods = make_pkg(tmp_path, "p", m="""
        class Base:
            def shared(self):
                return 1

        class Child(Base):
            def entry(self):
                return self.shared()
    """)
    index = ProjectIndex(mods.values())
    fn = index.functions["p.m:Child.entry"]
    assert index.resolve_call(fn, "self.shared") == "p.m:Base.shared"


def test_reachability_closure(tmp_path):
    mods = make_pkg(tmp_path, "p", m="""
        def a():
            b()

        def b():
            c()

        def c():
            return 0

        def island():
            return 1
    """)
    index = ProjectIndex(mods.values())
    reached = index.reachable(["p.m:a"])
    assert {"p.m:a", "p.m:b", "p.m:c"} <= reached
    assert "p.m:island" not in reached


def test_file_summary_round_trips_through_json(tmp_path):
    s = make_pkg(tmp_path, "p", a="""
        class C:
            def go(self, rpc):
                kind = rpc.body["kind"]
                if kind == "pull":
                    self._entries.append(rpc.body["host"])
                rpc.call("sync", {"kind": "pull"})
    """)["a"]
    clone = FileSummary.from_dict(s.to_dict())
    assert clone.to_dict() == s.to_dict()
    fn = clone.functions["p.a:C.go"]
    assert fn.sends[0].kind == "pull"
    assert fn.dispatches[0].kind == "pull"
    assert fn.dispatches[0].required == ["host"]


def test_builder_return_keys_union_across_forms(tmp_path):
    mods = make_pkg(tmp_path, "p", m="""
        class C:
            def _encode(self, full):
                msg = {"kind": "push", "host": 1}
                if full:
                    return msg
                return dict(msg, delta=True)

            def send(self, rpc):
                rpc.call("sync", self._encode(True))
    """)
    index = ProjectIndex(mods.values())
    sends = index.resolved_sends()
    assert len(sends) == 1
    _fn, _site, kinds, keys = sends[0]
    assert kinds == ["push"]
    assert {"kind", "host", "delta"} <= set(keys)


@pytest.mark.parametrize("snippet,expect", [
    ("def f():\n    return set(a) | set(b)\n", True),
    ("def f():\n    return {1, 2}\n", True),
    ("def f():\n    return sorted(set(a))\n", False),
    ("def f():\n    return list(a)\n", False),
])
def test_returns_set_detection(tmp_path, snippet, expect):
    pkg = tmp_path / f"rs{abs(hash(snippet)) % 10**6}"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    path = pkg / "m.py"
    path.write_text(snippet)
    module = Module(path=str(path), source=snippet,
                    tree=ast.parse(snippet), scope="src")
    summary = summarize_module(module)
    fn = next(iter(summary.functions.values()))
    assert fn.returns_set is expect
