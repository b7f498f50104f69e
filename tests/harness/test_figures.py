"""The figure table is the only list of experiments: every row runs
end to end at miniature size through the CLI and the workspace, and
every row is checked by a shape file or a named tier-1 file that
DESIGN.md §3 points at. ``run_points``, the one runner behind them,
caches by content and gives equal rows serial, pooled and replayed."""

import json
import pickle
import re
from functools import partial
from pathlib import Path

import pytest

from repro.cli import main
from repro.harness import FIGURES, Workspace, run_figure, run_points
from repro.harness.workspace import canonical_json

ROOT = Path(__file__).resolve().parents[2]

#: figure -> (miniature keyword arguments of its points function, the
#: ``--scale`` the CLI passes to the figures on a scaled timeline)
MINI = {
    "fig01": (dict(apps=("bert",)), None),
    "fig07": (dict(server_counts=(1, 2), duration=0.5), None),
    "fig08a": ({}, 0.02),
    "fig08b": ({}, 0.02),
    "fig08c": ({}, 0.02),
    "fig09": ({}, 0.02),
    "fig10": ({}, 0.02),
    "fig12": ({}, 0.02),
    "fig13": (dict(apps=("bert",)), None),
    "fig14": (dict(lambdas=(0.05,)), None),
    "datawarp": (dict(duration=0.5), None),
    "sync-ladder": (dict(server_counts=(4, 8)), None),
    "outage": (dict(duration=2.0, crash_at=0.75, restart_at=1.25), None),
}


def test_every_row_has_a_miniature():
    assert set(MINI) == set(FIGURES)


@pytest.mark.parametrize("name", sorted(MINI))
def test_row_runs_cold_then_warm_through_the_cli(name, tmp_path, capsys,
                                                 monkeypatch):
    monkeypatch.setenv("REPRO_CODE_REV", "figure-table-test")
    params, scale = MINI[name]
    figure = FIGURES[name]
    monkeypatch.setitem(FIGURES, name, figure._replace(
        points=partial(figure.points, **params)))
    ws = str(tmp_path / "ws")
    argv = ["figure", name, "--workspace", ws]
    if scale is not None:
        argv += ["--scale", str(scale)]

    assert main(argv) == 0
    cold = capsys.readouterr()
    assert "hits 0" in cold.err
    assert main(argv) == 0
    warm = capsys.readouterr()
    assert warm.out == cold.out and cold.out.strip()
    assert "misses 0" in warm.err

    # The same points, read back through the library: JSON all the way
    # down, and report(rows) is what the command printed.
    if scale is not None:
        params = dict(params, scale=scale)
    rows = run_figure(name, workspace=Workspace(ws), **params)
    assert json.loads(json.dumps(rows)) == rows
    assert figure.report(rows) + "\n" == cold.out

    if name == "sync-ladder":   # a row per point, in point order
        cells = [[cell.strip() for cell in line.split("|")]
                 for line in cold.out.splitlines()]
        assert [(row[0], row[1]) for row in cells if row[0].isdigit()] == [
            ("4", "0"), ("4", "8"), ("8", "0"), ("8", "8")]


def test_every_figure_is_checked_and_indexed(capsys):
    """Each name ``figures`` prints has a row in DESIGN.md §3 whose last
    cell names the existing file(s) that run it — under ``shapes/`` or
    in tier-1 — and those files do name the figure or its cell."""
    assert main(["figures"]) == 0
    names = capsys.readouterr().out.split()
    assert names == sorted(FIGURES)
    design = (ROOT / "DESIGN.md").read_text()
    section = design[design.index("## 3. Per-experiment index"):
                     design.index("## 4. ")]
    table_rows = [line for line in section.splitlines()
                  if line.startswith("|")]
    for name in names:
        (row,) = [line for line in table_rows
                  if f"`{name}`" in line.split("|")[1]]
        checks = re.findall(r"`((?:shapes|tests)/[\w/]+\.py)",
                            row.split("|")[-2])
        assert checks, f"{name}: §3 row names no shape or test file"
        for check in checks:
            source = (ROOT / check).read_text()
            assert (f'"{name}"' in source
                    or FIGURES[name].cell.__name__ in source), (name, check)


def test_every_cell_pickles_by_reference():
    """``spawn`` workers receive the cell by qualified name: a lambda or
    a ``partial`` cell would fail here before it failed in a pool."""
    for figure in FIGURES.values():
        assert pickle.loads(pickle.dumps(figure.cell)) is figure.cell


#: configs ``echo_cell`` was called on (a fresh list per test)
ECHO_CALLS = []


def echo_cell(config):
    """Deterministic stand-in cell for the runner-cache cases."""
    ECHO_CALLS.append(dict(config))
    return {"v": int(config["x"]) * 2}


class TestRunnerCaching:
    """Cache behaviour of :func:`run_points`, on a cheap module-level
    cell."""

    @pytest.fixture(autouse=True)
    def echo_calls(self, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_REV", "r")
        calls = []
        monkeypatch.setitem(globals(), "ECHO_CALLS", calls)
        return calls

    def test_jobs_one_degenerate_path(self, echo_calls):
        # No workspace, one worker: pure in-process computation.
        rows, hits = run_points(echo_cell, [{"x": 1}, {"x": 2}])
        assert rows == [{"x": 1, "v": 2}, {"x": 2, "v": 4}]
        assert hits == 0
        assert len(echo_calls) == 2

    def test_hit_on_identical_config(self, echo_calls, tmp_path):
        ws = Workspace(str(tmp_path / "ws"))
        configs = [{"x": 1}, {"x": 2}]
        rows1, hits1 = run_points(echo_cell, configs, ws)
        rows2, hits2 = run_points(echo_cell, configs, ws)
        assert (hits1, hits2) == (0, 2)
        assert len(echo_calls) == 2  # second pass computed nothing
        assert canonical_json(rows1) == canonical_json(rows2)

    def test_miss_on_config_change(self, echo_calls, tmp_path):
        ws = Workspace(str(tmp_path / "ws"))
        run_points(echo_cell, [{"x": 1}], ws)
        _rows, hits = run_points(echo_cell, [{"x": 3}], ws)
        assert hits == 0
        assert len(echo_calls) == 2

    def test_miss_on_rev_change(self, echo_calls, tmp_path, monkeypatch):
        ws = Workspace(str(tmp_path / "ws"))
        run_points(echo_cell, [{"x": 1}], ws)
        monkeypatch.setenv("REPRO_CODE_REV", "r2")
        _rows, hits = run_points(echo_cell, [{"x": 1}], ws)
        assert hits == 0  # same config, new code revision
        assert len(echo_calls) == 2

    def test_corrupted_blob_recovered(self, echo_calls, tmp_path):
        ws = Workspace(str(tmp_path / "ws"))
        run_points(echo_cell, [{"x": 1}], ws)
        (blob,) = (tmp_path / "ws" / "points").glob("*.json")
        blob.write_text("{half a blob")
        rows, hits = run_points(echo_cell, [{"x": 1}], ws)
        assert hits == 0  # recomputed, not crashed
        assert rows == [{"x": 1, "v": 2}]
        # ... and the store healed: next pass hits again.
        assert run_points(echo_cell, [{"x": 1}], ws)[1] == 1

    def test_duplicate_keys_computed_once(self, echo_calls):
        rows, _hits = run_points(echo_cell, [{"x": 1}, {"x": 1}])
        assert len(echo_calls) == 1
        assert rows == [{"x": 1, "v": 2}, {"x": 1, "v": 2}]


@pytest.mark.slow
class TestBitIdentity:
    """The serial == parallel == replay contract, end to end on a real
    figure (spawned worker processes included)."""

    def test_serial_parallel_replay_identical(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_REV", "bit-identity-test")
        ws = Workspace(str(tmp_path / "ws"))
        counts = (4, 8)
        serial = run_figure("sync-ladder", server_counts=counts)
        parallel = run_figure("sync-ladder", workspace=ws, jobs=2,
                              server_counts=counts)
        configs = FIGURES["sync-ladder"].points(server_counts=counts)
        replay, hits = run_points(FIGURES["sync-ladder"].cell, configs, ws)
        assert hits == len(configs) == 4
        assert canonical_json(serial) == canonical_json(parallel)
        assert canonical_json(serial) == canonical_json(replay)
