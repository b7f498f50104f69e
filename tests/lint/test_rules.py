"""Per-rule fixture tests: one positive and one negative snippet each."""

import ast

import pytest

from repro.lint import lint_source
from repro.lint.rules.det import set_returning_names

SRC = "src/repro/somewhere/mod.py"      # src scope
TEST = "tests/somewhere/test_mod.py"    # tests scope


def rule_ids(findings):
    """The rule ids of *findings*, order-preserving."""
    return [f.rule for f in findings]


def hits(source, rule, path=SRC):
    """Findings of *rule* for *source* linted as *path*."""
    return [f for f in lint_source(source, path=path, select=[rule])
            if f.rule == rule]


# ------------------------------------------------------------------ DET001
class TestRawRandom:
    def test_import_random_flagged(self):
        assert hits("import random\n", "DET001")

    def test_from_random_flagged(self):
        assert hits("from random import shuffle\n", "DET001")

    def test_numpy_import_clean(self):
        assert not hits("import numpy as np\n", "DET001")

    def test_tests_scope_exempt(self):
        assert not hits("import random\n", "DET001", path=TEST)


# ------------------------------------------------------------------ DET002
class TestAdHocNumpyRng:
    def test_default_rng_flagged(self):
        src = "import numpy as np\nrng = np.random.default_rng(0)\n"
        assert hits(src, "DET002")

    def test_bare_default_rng_flagged(self):
        src = ("from numpy.random import default_rng\n"
               "rng = default_rng(7)\n")
        assert hits(src, "DET002")

    def test_legacy_seed_flagged(self):
        src = "import numpy as np\nnp.random.seed(42)\n"
        assert hits(src, "DET002")

    def test_registry_stream_clean(self):
        src = ("from repro.sim.rng import RngRegistry\n"
               "rng = RngRegistry(0).stream('workload.jitter')\n")
        assert not hits(src, "DET002")

    def test_rng_registry_module_exempt(self):
        src = ("import numpy as np\n"
               "g = np.random.Generator(np.random.PCG64(1))\n")
        assert hits(src, "DET002")
        assert not hits(src, "DET002", path="src/repro/sim/rng.py")

    def test_alias_flagged_at_the_assignment(self):
        # A reference launders every later call through the alias.
        src = ("import numpy as np\n"
               "_mk = np.random.default_rng\n"
               "rng = _mk(0)\n")
        assert [f.line for f in hits(src, "DET002")] == [2]

    def test_call_reported_once(self):
        src = "import numpy as np\nrng = np.random.default_rng(0)\n"
        assert len(hits(src, "DET002")) == 1

    def test_annotations_construct_nothing(self):
        src = ("import numpy as np\n"
               "def f(rng: np.random.Generator) -> np.random.Generator:\n"
               "    held: np.random.Generator = rng\n"
               "    return held\n")
        assert not hits(src, "DET002")


# ------------------------------------------------------------------ DET003
class TestWallClock:
    @pytest.mark.parametrize("call", [
        "time.time()", "time.monotonic()", "time.gmtime()",
        "datetime.datetime.now()", "datetime.date.today()",
    ])
    def test_wall_clock_flagged(self, call):
        src = f"import time, datetime\nx = {call}\n"
        assert hits(src, "DET003")

    def test_perf_counter_allowed(self):
        src = "import time\nt0 = time.perf_counter()\n"
        assert not hits(src, "DET003")

    def test_engine_now_clean(self):
        assert not hits("t = engine.now\n", "DET003")


# ------------------------------------------------------------------ DET004
class TestUnorderedIteration:
    def test_for_over_set_call_flagged(self):
        src = "for k in set(items):\n    consume(k)\n"
        assert hits(src, "DET004")

    def test_comprehension_over_union_flagged(self):
        src = "tv = sum(d[k] for k in set(a) | set(b))\n"
        assert hits(src, "DET004")

    def test_tracked_name_flagged(self):
        src = ("keys = set(a) | set(b)\n"
               "out = [d[k] for k in keys]\n")
        assert hits(src, "DET004")

    def test_sorted_wrapper_clean(self):
        src = "tv = sum(d[k] for k in sorted(set(a) | set(b)))\n"
        assert not hits(src, "DET004")

    def test_sorted_assignment_clears_taint(self):
        src = ("keys = sorted(set(a) | set(b))\n"
               "out = [d[k] for k in keys]\n")
        assert not hits(src, "DET004")

    def test_list_over_set_flagged(self):
        assert hits("order = list(set(jobs))\n", "DET004")

    def test_dict_iteration_clean(self):
        src = "for k in mapping:\n    consume(k)\n"
        assert not hits(src, "DET004")

    def test_membership_test_clean(self):
        assert not hits("ok = x in set(items)\n", "DET004")

    def test_applies_in_tests_scope(self):
        src = "for k in set(items):\n    consume(k)\n"
        assert hits(src, "DET004", path=TEST)


# ------------------------------------------------------------------ DET005
class TestIdOrdering:
    def test_key_id_flagged(self):
        assert hits("jobs.sort(key=id)\n", "DET005")

    def test_lambda_id_key_flagged(self):
        src = "ordered = sorted(jobs, key=lambda j: id(j))\n"
        assert hits(src, "DET005")

    def test_hash_id_flagged(self):
        assert hits("h = hash(id(job))\n", "DET005")

    def test_stable_key_clean(self):
        src = "ordered = sorted(jobs, key=lambda j: j.job_id)\n"
        assert not hits(src, "DET005")

    def test_repr_id_allowed(self):
        # id() for debugging output is fine; only ordering/hashing is not.
        assert not hits("label = f'<obj at {id(self):#x}>'\n", "DET005")


# ------------------------------------------------------------------ DET007
@pytest.mark.parametrize("snippet,expect", [
    ("def f():\n    return set(a) | set(b)\n", True),
    ("def f():\n    return {1, 2}\n", True),
    ("def f():\n    return sorted(set(a))\n", False),
    ("def f():\n    return list(a)\n", False),
], ids=["union", "literal", "sorted", "list"])
def test_returns_set_detection(snippet, expect):
    assert (set_returning_names([ast.parse(snippet)]) == {"f"}) is expect


class TestUnorderedEscape:
    HELPER = "def live(self):\n    return set(self.jobs)\n"

    def test_loop_and_comprehension_over_the_call_flagged(self):
        src = (self.HELPER + "for j in monitor.live():\n    wake(j)\n"
               "order = [j for j in live()]\n")
        assert [f.line for f in hits(src, "DET007")] == [3, 5]

    def test_annotation_and_tainted_local_count_as_set_returns(self):
        src = ("def a(x) -> Set[int]:\n    return x\n"
               "def b(x):\n    out = set(x)\n    return out\n"
               "for j in a(1):\n    pass\n"
               "for j in b(1):\n    pass\n")
        assert [f.line for f in hits(src, "DET007")] == [6, 8]

    def test_sorted_wrapper_clean(self):
        assert not hits(self.HELPER + "for j in sorted(live()):\n    pass\n",
                        "DET007")

    def test_name_shared_with_a_non_set_function_clean(self):
        src = (self.HELPER + "class Other:\n"
               "    def live(self):\n        return [1]\n"
               "for j in monitor.live():\n    pass\n")
        assert not hits(src, "DET007")

    def test_builtin_container_verb_clean(self):
        src = ("def keys(self):\n    return set(self.d)\n"
               "for k in mapping.keys():\n    pass\n")
        assert not hits(src, "DET007")


# ------------------------------------------------------------------ SIM001
class TestBlockingCall:
    def test_time_sleep_flagged(self):
        src = "import time\ndef proc():\n    time.sleep(1)\n"
        assert hits(src, "SIM001")

    def test_bare_sleep_import_flagged(self):
        src = "from time import sleep\nsleep(0.1)\n"
        assert hits(src, "SIM001")

    def test_engine_timeout_clean(self):
        src = "def proc(engine):\n    yield engine.timeout(1.0)\n"
        assert not hits(src, "SIM001")

    def test_tests_scope_exempt(self):
        src = "import time\ntime.sleep(0.01)\n"
        assert not hits(src, "SIM001", path=TEST)


# ------------------------------------------------------------------ SIM002
class TestYieldRace:
    RACE = (
        "def worker(self, engine):\n"
        "    count = self.stats.served\n"
        "    yield engine.timeout(1.0)\n"
        "    self.stats.served = count + 1\n"
    )

    def test_lost_update_flagged(self):
        findings = hits(self.RACE, "SIM002")
        assert findings and findings[0].severity.value == "warning"

    def test_reread_after_yield_clean(self):
        src = (
            "def worker(self, engine):\n"
            "    yield engine.timeout(1.0)\n"
            "    count = self.stats.served\n"
            "    self.stats.served = count + 1\n"
        )
        assert not hits(src, "SIM002")

    def test_augassign_clean(self):
        src = (
            "def worker(self, engine):\n"
            "    yield engine.timeout(1.0)\n"
            "    self.stats.served += 1\n"
        )
        assert not hits(src, "SIM002")

    def test_different_attribute_clean(self):
        src = (
            "def worker(self, engine):\n"
            "    count = self.stats.served\n"
            "    yield engine.timeout(1.0)\n"
            "    self.stats.dropped = count\n"
        )
        assert not hits(src, "SIM002")

    def test_non_generator_clean(self):
        src = (
            "def update(self):\n"
            "    count = self.stats.served\n"
            "    self.stats.served = count + 1\n"
        )
        assert not hits(src, "SIM002")


# ------------------------------------------------------------------ SIM003
class TestMutableDefault:
    def test_list_literal_flagged(self):
        assert hits("def f(x, acc=[]):\n    pass\n", "SIM003")

    def test_dict_call_flagged(self):
        assert hits("def f(x, table=dict()):\n    pass\n", "SIM003")

    def test_kwonly_default_flagged(self):
        assert hits("def f(*, acc={}):\n    pass\n", "SIM003")

    def test_none_default_clean(self):
        assert not hits("def f(x, acc=None):\n    pass\n", "SIM003")

    def test_tuple_default_clean(self):
        assert not hits("def f(x, acc=()):\n    pass\n", "SIM003")

    def test_applies_in_tests_scope(self):
        assert hits("def f(acc=[]):\n    pass\n", "SIM003", path=TEST)


# ------------------------------------------------------------------ SIM004
class TestWorkerBoundary:
    def test_fork_context_flagged(self):
        src = ("import multiprocessing\n"
               "ctx = multiprocessing.get_context('fork')\n")
        assert hits(src, "SIM004")

    def test_default_context_flagged(self):
        src = ("import multiprocessing\n"
               "ctx = multiprocessing.get_context()\n")
        assert hits(src, "SIM004")

    def test_dynamic_context_flagged(self):
        src = ("import multiprocessing\n"
               "ctx = multiprocessing.get_context(method)\n")
        assert hits(src, "SIM004")

    def test_spawn_context_clean(self):
        src = ("import multiprocessing\n"
               "ctx = multiprocessing.get_context('spawn')\n")
        assert not hits(src, "SIM004")

    def test_set_start_method_fork_flagged(self):
        src = ("import multiprocessing\n"
               "multiprocessing.set_start_method('fork')\n")
        assert hits(src, "SIM004")

    def test_os_fork_flagged(self):
        assert hits("import os\npid = os.fork()\n", "SIM004")

    def test_default_pool_flagged(self):
        src = ("import multiprocessing\n"
               "pool = multiprocessing.Pool(4)\n")
        assert hits(src, "SIM004")

    def test_from_import_pool_flagged(self):
        src = ("from multiprocessing import Pool\n"
               "pool = Pool(4)\n")
        assert hits(src, "SIM004")

    def test_spawn_context_pool_clean(self):
        # The sweep runner's own pattern: context-derived Pool is fine.
        src = ("import multiprocessing\n"
               "ctx = multiprocessing.get_context('spawn')\n"
               "pool = ctx.Pool(4)\n")
        assert not hits(src, "SIM004")

    def test_lambda_worker_flagged(self):
        src = "r = pool.imap_unordered(lambda t: t * 2, tasks)\n"
        assert hits(src, "SIM004")

    def test_bound_method_worker_flagged(self):
        src = "r = pool.apply_async(self._work, (task,))\n"
        assert hits(src, "SIM004")

    def test_toplevel_worker_clean(self):
        src = "r = pool.imap_unordered(worker_fn, tasks)\n"
        assert not hits(src, "SIM004")

    def test_tests_scope_exempt(self):
        src = ("import multiprocessing\n"
               "pool = multiprocessing.Pool(4)\n")
        assert not hits(src, "SIM004", path=TEST)


# ---------------------------------------------------------------- framework
class TestFramework:
    def test_syntax_error_reported(self):
        findings = lint_source("def broken(:\n")
        assert rule_ids(findings) == ["LINT000"]

    def test_select_filters_rules(self):
        src = "import random\nimport time\nx = time.time()\n"
        only = lint_source(src, select=["DET001"])
        assert {f.rule for f in only} == {"DET001"}

    def test_clean_snippet_has_no_findings(self):
        src = (
            "def add(a, b):\n"
            "    '''Sum of a and b.'''\n"
            "    return a + b\n"
        )
        assert lint_source(src) == []

    def test_partial_run_reports_no_stale_waiver(self):
        # A selection cannot tell a stale waiver from one whose rule
        # did not run.
        src = ("import time\n"
               "x = time.time()  # lint: disable=DET003 -- host metadata\n")
        assert lint_source(src, select=["DET001"]) == []
