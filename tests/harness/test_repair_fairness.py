"""The repair-vs-fairness scenario: cell contract, matrix assembly,
sweep registration, and the zero-loss acceptance per policy."""

import pytest

from repro.harness import FIGURES, run_figure
from repro.harness.experiments import repair_cell
from repro.harness.sweep import resolve_point_kind


@pytest.fixture(scope="module")
def cell():
    """One shared repair point (module-scoped: it is the slow part)."""
    return repair_cell({"policy": "job-fair", "seed": 0,
                        "duration": 4.0, "crash_at": 1.5})


class TestRepairCell:
    def test_repair_completes_with_zero_loss(self, cell):
        assert cell["repair_completion_s"] is not None
        assert cell["repair_completion_s"] > 0
        assert cell["data_lost_groups"] == 0
        assert cell["groups_lost"] == 0
        assert cell["groups_rebuilt"] > 0
        assert cell["repair_bytes"] > 0

    def test_foreground_ran_degraded(self, cell):
        # The crash lands mid-burst: clients must have taken the
        # degraded read/write paths, not stalled on the dead server.
        assert cell["degraded_reads"] + cell["degraded_writes"] > 0
        assert cell["fg_before"] > 0
        assert cell["fg_during"] > 0

    def test_result_is_json_shaped(self, cell):
        import json
        json.dumps(cell)  # every value must serialise

    def test_registered_as_sweep_point_kind(self):
        assert resolve_point_kind("repair_cell") is repair_cell


class TestRepairFairnessMatrix:
    def test_matrix_and_verdict(self):
        rows = run_figure("repair", policies=("fifo", "size-fair"),
                          duration=4.0, crash_at=1.5)
        text = FIGURES["repair"].report(rows)
        assert "fifo" in text and "size-fair" in text
        assert "size-fair verdict" in text
        assert [row["policy"] for row in rows] == ["fifo", "size-fair"]
        for row in rows:
            assert row["data_lost_groups"] == 0
            assert row["repair_completion_s"] is not None, row["policy"]
            assert row["groups_rebuilt"] > 0, row["policy"]
