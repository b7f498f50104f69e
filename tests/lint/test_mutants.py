"""Every rule has a live mutant: one seeded defect in the *real* tree
that the rule flags and that neither tier-1 (minus ``tests/lint``) nor
``scripts/ledger_counts.py`` notices — the bar a rule must clear to stay
(EXPERIMENTS.md, *Lint rule retirement*, has the measured table these
rows come from). Each mutant is a textual replacement applied to the
file in memory; an anchor that no longer matches fails the test.
"""

import ast
from functools import lru_cache
from pathlib import Path

import pytest

from repro.lint import lint_source
from repro.lint.rules.det import set_returning_names

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
STAT = "name = int(rng.integers(0, self.name_space))"

# (rule, file under src/repro, [(anchor, replacement), ...])
MUTANTS = [
    ("DET001", "workloads/custom.py", [
        (STAT, "import random; name = random.randrange(0, self.name_space)")]),
    ("DET002", "workloads/custom.py", [
        (STAT, "import numpy as np; name = int(np.random.default_rng("
               "stream_idx).integers(0, self.name_space))")]),
    ("DET002", "workloads/custom.py", [     # a reference, not a call
        ("from .base import Workload\n",
         "from .base import Workload\nimport numpy as np\n"
         "_mk = np.random.default_rng\n"),
        (STAT, "name = int(_mk(stream_idx).integers(0, self.name_space))")]),
    ("DET003", "core/jobinfo.py", [
        ("JobRecord(info, now, True)",
         "JobRecord(info, now + 0 * time.time(), True)")]),
    ("DET004", "core/baselines/tbf.py", [
        ("for j in sorted(backlogged))", "for j in backlogged)")]),
    ("DET004", "core/fairness.py", [        # flagged where it is iterated
        ("    keys = sorted(set(a) | set(b))\n    return 0.5 * sum(",
         "    keys = set(a) | set(b)\n    return 0.5 * sum(")]),
    ("DET005", "metrics/faultstats.py", [
        ("key=lambda kv: (kv[1] == 0, kv[0]))",
         "key=lambda kv: (kv[1] == 0, id(kv[0])))")]),
    ("DET007", "bb/controller.py", [
        ("self.server.monitor.active_local_jobs())",
         "[j for j in self.server.monitor.active_local_jobs()])")]),
    ("SIM001", "bb/worker.py", [
        ("            yield from self._acquire_locks(request)",
         "            import time; time.sleep(0)\n"
         "            yield from self._acquire_locks(request)")]),
    ("SIM002", "bb/client.py", [
        ("            self.stats.retries += 1\n"
         "            yield self.engine.timeout(\n"
         "                delay + float(self._rng.random()) * delay * 0.1)\n",
         "            retried = self.stats.retries\n"
         "            yield self.engine.timeout(\n"
         "                delay + float(self._rng.random()) * delay * 0.1)\n"
         "            self.stats.retries = retried + 1\n")]),
    ("SIM003", "bb/monitor.py", [
        ("on_expire: Optional[Callable[[List[int]], None]] = None):",
         "on_expire: Optional[Callable[[List[int]], None]] = None,\n"
         "                 seen: list = []):")]),
    ("SIM004", "harness/sweep.py", [
        ('get_context("spawn")', 'get_context("fork")')]),
]


def mutate(rel, edits):
    """The mutated text of ``src/repro/<rel>`` and the 1-based line
    ranges the edits cover in it."""
    text = (SRC / rel).read_text(encoding="utf-8")
    spans = []
    for anchor, replacement in edits:
        assert text.count(anchor) == 1, \
            f"stale anchor in {rel} (matches {text.count(anchor)}x): {anchor!r}"
        first = text.count("\n", 0, text.index(anchor)) + 1
        text = text.replace(anchor, replacement)
        spans.append(range(first, first + replacement.count("\n") + 1))
    return text, spans


@lru_cache(maxsize=None)
def project_names():
    return set_returning_names(
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.rglob("*.py")))


@pytest.mark.parametrize(
    "rule,rel,edits", MUTANTS,
    ids=[f"{rule}-{Path(rel).stem}-{n}"
         for n, (rule, rel, _edits) in enumerate(MUTANTS)])
def test_rule_flags_its_real_tree_mutant(rule, rel, edits):
    text, spans = mutate(rel, edits)
    found = lint_source(text, path=f"src/repro/{rel}",
                        set_returning=project_names())
    assert {f.rule for f in found} == {rule}, [f.render() for f in found]
    assert all(any(f.line in span for span in spans) for f in found)


def test_every_rule_has_a_mutant():
    from repro.lint import all_rules
    assert {rule.id for rule in all_rules()} == {m[0] for m in MUTANTS}


def test_stale_anchor_fails_instead_of_passing():
    with pytest.raises(AssertionError, match="stale anchor"):
        mutate("bb/worker.py", [("yield from self._take_locks(request)", "")])
