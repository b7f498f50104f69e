"""Waiver parsing and suppression semantics."""

from repro.lint import lint_source


def rules_of(findings):
    """The rule ids of *findings* as a set."""
    return {f.rule for f in findings}


class TestWaivers:
    def test_same_line_waiver_suppresses(self):
        src = ("import time\n"
               "x = time.time()  "
               "# lint: disable=DET003 -- host-side metadata only\n")
        assert "DET003" not in rules_of(lint_source(src))

    def test_deleting_waiver_restores_finding(self):
        # The acceptance property: removing a committed waiver makes the
        # original finding fire again.
        src = "import time\nx = time.time()\n"
        assert "DET003" in rules_of(lint_source(src))

    def test_standalone_waiver_covers_next_line(self):
        src = ("import time\n"
               "# lint: disable=DET003 -- stamp for humans, not sim state\n"
               "x = time.time()\n")
        assert "DET003" not in rules_of(lint_source(src))

    def test_waiver_is_rule_specific(self):
        src = ("import time\n"
               "x = time.time()  # lint: disable=DET001 -- wrong rule\n")
        findings = rules_of(lint_source(src))
        assert "DET003" in findings          # not suppressed
        assert "LINT002" in findings         # and the waiver is stale

    def test_multi_rule_waiver(self):
        src = ("import time\n"
               "def f(engine, acc=[]):\n"
               "    # lint: disable=DET003, SIM001 -- fixture exercising both\n"
               "    x = time.time(); time.sleep(1)\n")
        findings = rules_of(lint_source(src))
        assert "DET003" not in findings and "SIM001" not in findings
        assert "SIM003" in findings          # unrelated finding unaffected

    def test_missing_reason_is_error_and_ignored(self):
        src = ("import time\n"
               "x = time.time()  # lint: disable=DET003\n")
        findings = rules_of(lint_source(src))
        assert "LINT001" in findings   # malformed waiver
        assert "DET003" in findings    # and it suppressed nothing

    def test_stale_waiver_reported(self):
        src = "y = 1  # lint: disable=DET004 -- nothing here anymore\n"
        findings = lint_source(src)
        assert rules_of(findings) == {"LINT002"}
        assert findings[0].severity.value == "warning"  # fails the run

    def test_used_waiver_not_stale(self):
        src = ("import time\n"
               "x = time.time()  # lint: disable=DET003 -- justified\n")
        assert "LINT002" not in rules_of(lint_source(src))
