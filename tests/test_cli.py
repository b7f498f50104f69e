"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.harness import FIGURES


class TestListing:
    def test_figures_lists_all(self, capsys):
        assert main(["figures"]) == 0
        out = capsys.readouterr().out.split()
        assert set(out) == set(FIGURES)

    def test_policies_lists_levels(self, capsys):
        assert main(["policies"]) == 0
        out = capsys.readouterr().out
        assert "group-user-size-fair" in out
        assert "group -> user -> size" in out


class TestFigure:
    def test_runs_a_small_figure(self, capsys):
        assert main(["figure", "fig08a", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "policy=size-fair" in out
        assert "GB/s" in out

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])


class TestRemovedCommands:
    def test_bench_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["faults", "repair"])
    def test_figures_that_were_subcommands(self, command, capsys):
        """``faults`` and ``repair`` are rows of the figure table now:
        ``figure outage`` and ``figure repair``."""
        with pytest.raises(SystemExit) as exc:
            main([command])
        assert exc.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err
        assert {"outage", "repair"} <= set(FIGURES)


class TestSharing:
    def test_adhoc_sharing_run(self, capsys):
        assert main(["sharing", "--policy", "job-fair",
                     "--jobs", "2:a,2:b", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "job1" in out and "job2" in out and "total" in out

    def test_bad_jobs_spec_is_an_error(self, capsys):
        assert main(["sharing", "--jobs", "nonsense"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_policy_is_an_error(self, capsys):
        assert main(["sharing", "--policy", "banana-fair",
                     "--jobs", "1:a"]) == 2
        assert "error:" in capsys.readouterr().err


class TestSweep:
    def _spec(self, tmp_path, scale=0.02):
        import json
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "name": "cli-test", "kind": "sharing",
            "base": {"nodes1": 2, "scale": scale, "n_servers": 1,
                     "seed": 0},
            "axes": {"policy": ["job-fair"], "nodes2": [1, 2]}}))
        return str(path)

    def test_spec_file_cold_then_warm(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_REV", "cli-test-rev")
        spec = self._spec(tmp_path)
        ws = str(tmp_path / "ws")
        out_json = str(tmp_path / "run.json")
        assert main(["sweep", spec, "--workspace", ws,
                     "--json", out_json]) == 0
        out = capsys.readouterr().out
        assert "sweep cli-test (sharing): 2 points" in out
        assert "misses 2" in out
        import json
        with open(out_json) as fh:
            cold = json.load(fh)
        assert cold["points"] == cold["misses"] == 2 and cold["digest"]
        assert main(["sweep", spec, "--workspace", ws,
                     "--json", out_json]) == 0
        assert "hits 2  misses 0" in capsys.readouterr().out
        with open(out_json) as fh:
            warm = json.load(fh)
        assert warm["hits"] == 2 and warm["digest"] == cold["digest"]

    def test_no_workspace_flag(self, tmp_path, capsys):
        spec = self._spec(tmp_path)
        assert main(["sweep", spec, "--no-workspace"]) == 0
        assert "misses 2" in capsys.readouterr().out

    def test_bad_spec_is_an_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        assert main(["sweep", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_grid_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "--grid", "no-such-grid"])

    def test_a_figure_name_is_a_grid(self, capsys, monkeypatch):
        from functools import partial
        ladder = FIGURES["sync-ladder"]
        monkeypatch.setitem(FIGURES, "sync-ladder", ladder._replace(
            points=partial(ladder.points, server_counts=(4,))))
        assert main(["sweep", "--grid", "sync-ladder", "--no-workspace"]) == 0
        assert ("sweep sync-ladder (sync_cost): 2 points"
                in capsys.readouterr().out)
