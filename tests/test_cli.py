"""Tests for the command-line interface."""

import pytest

from repro.cli import _parse_jobs, main
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


@pytest.mark.parametrize("command", [["figure", "fig08a"], ["sharing"]])
@pytest.mark.parametrize("scale", ["nan", "inf", "1e999", "0", "-0.5", "x"])
def test_bad_scale_is_an_argparse_error(command, scale, capsys):
    """A non-finite or non-positive ``--scale`` is refused at parse time
    with a message that names the flag, before any point runs."""
    with pytest.raises(SystemExit) as exc:
        main([*command, "--scale", scale])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "argument --scale:" in err and "finite number above 0" in err


class TestRemovedCommands:
    def test_bench_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_sweep_is_an_argparse_error(self, capsys):
        """A figure's points run through ``figure NAME --workspace DIR
        --jobs N``, or ``run_figure(NAME, **params)`` from Python."""
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--grid", "quick"])
        assert exc.value.code == 2
        assert "invalid choice: 'sweep'" in capsys.readouterr().err

    def test_faults_is_a_row_of_the_figure_table(self, capsys):
        """``faults`` is ``figure outage`` now."""
        with pytest.raises(SystemExit) as exc:
            main(["faults"])
        assert exc.value.code == 2
        assert "invalid choice: 'faults'" in capsys.readouterr().err
        assert "outage" in FIGURES


class TestSharing:
    def test_adhoc_sharing_run(self, capsys):
        assert main(["sharing", "--policy", "job-fair",
                     "--jobs", "2:a,2:b", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "job1" in out and "job2" in out and "total" in out

    @pytest.mark.parametrize("spec", ["nonsense", "x:alice", "4:", "4: ",
                                      "4:alice:", "4:alice:g1:zzz",
                                      "4:alice,1:bob:"])
    def test_bad_jobs_spec_is_an_error(self, spec, capsys):
        assert main(["sharing", "--jobs", spec]) == 2
        assert "error:" in capsys.readouterr().err

    def test_jobs_spec_fields_are_stripped(self):
        # " alice" and "alice" are one user: a user-fair run must not
        # split that user's share.
        specs = _parse_jobs("4: alice , 1:alice: g1")
        assert [(s.nodes, s.user, s.group) for s in specs] == [
            (4, "alice", "g0"), (1, "alice", "g1")]

    def test_bad_policy_is_an_error(self, capsys):
        assert main(["sharing", "--policy", "banana-fair",
                     "--jobs", "1:a"]) == 2
        assert "error:" in capsys.readouterr().err
