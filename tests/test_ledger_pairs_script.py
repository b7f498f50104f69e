"""``scripts/ledger_pairs.py``'s per-layer table: self seconds and self
fractions, medians per side, over synthetic traced runs."""

import importlib.util
import os

import pytest

_SCRIPT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts", "ledger_pairs.py")


@pytest.fixture(scope="module")
def script():
    spec = importlib.util.spec_from_file_location("ledger_pairs", _SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(core_s, other_s, scale=1.0):
    """A traced run: ``core`` spends *core_s*, ``sim`` and ``bb``
    *other_s* each, every second times *scale* (a host running slower
    or faster); fractions of the run as the tracer reports them."""
    seconds = {"core": core_s * scale, "sim": other_s * scale,
               "bb": other_s * scale}
    total = sum(seconds.values())
    run = {f"{layer}.self_s": s for layer, s in seconds.items()}
    run.update({f"{layer}.self_frac": s / total
                for layer, s in seconds.items()})
    return run


def _row(lines, layer):
    (row,) = [line for line in lines if line.startswith(f"| `{layer}` |")]
    return [cell.strip() for cell in row.strip("|").split("|")]


def test_fractions_stand_beside_seconds_and_cancel_host_drift(script):
    # The change halves core's work, but its side ran on a host 10 %
    # slower: every layer's seconds read 10 % more, the fractions do not.
    runs = [{"base": _run(2.0, 1.0), "change": _run(1.0, 1.0, scale=1.1)},
            {"base": _run(2.2, 1.0), "change": _run(1.1, 1.0, scale=1.1)},
            {"base": _run(1.8, 1.0), "change": _run(0.9, 1.0, scale=1.1)}]
    lines = script.layer_table("job_churn", runs)
    assert lines[0].startswith("| `job_churn` traced |")
    assert len(lines) == 2 + len(script.SELF_FRACS)
    # layer | base s | change s | rel | base frac | change frac | rel
    assert _row(lines, "sim") == ["`sim`", "1", "1.1", "+10.0%",
                                  "0.25", "0.3333", "+33.3%"]
    assert _row(lines, "core")[1:4] == ["2", "1.1", "-45.0%"]
    assert _row(lines, "core")[4:] == ["0.5", "0.3333", "-33.3%"]
    # A layer the run does not report is left blank.
    assert _row(lines, "net") == ["`net`", "", "", "", "", "", ""]


def test_a_layer_with_only_a_fraction_has_blank_seconds(script):
    base = {"workloads.self_frac": 0.2, "core.self_s": 1.0,
            "core.self_frac": 0.8}
    lines = script.layer_table("outage", [{"base": base, "change": base}])
    assert _row(lines, "workloads") == ["`workloads`", "", "", "",
                                        "0.2", "0.2", "+0.0%"]
    assert "workloads.self_frac" in script.SELF_FRACS
    assert "workloads.self_s" not in script.SELF_TIMES
