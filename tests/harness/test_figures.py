"""The figure table is the only list of experiments: every row runs
end to end at miniature size through the CLI and the workspace, and
every row is checked by a shape file or a named tier-1 file that
DESIGN.md §3 points at."""

import json
import re
from functools import partial
from pathlib import Path

import pytest

from repro.cli import main
from repro.harness import FIGURES, Workspace, run_figure

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
    "repair": (dict(policies=("size-fair",), duration=2.0, crash_at=0.75),
               None),
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
