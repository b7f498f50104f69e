"""Plumbing tests of the ledger; run with ``python -m pytest ledger``.

Not part of tier-1 (``testpaths`` is ``tests``): two smoke runs of all
five workloads take about half a minute.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import compare  # noqa: E402
import spec  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "ledger", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.fixture(scope="module")
def smoke_docs(tmp_path_factory):
    """Two traced smoke runs of every workload: (documents, stdouts)."""
    out = tmp_path_factory.mktemp("ledger")
    docs, stdouts = [], []
    for i in range(2):
        path = str(out / f"smoke{i}.json")
        proc = _run("--smoke", "--repeats", "1", "--trace", "--out", path)
        assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
        with open(path) as fh:
            docs.append(json.load(fh))
        stdouts.append(proc.stdout)
    return docs, stdouts


def test_benchmark_json_matches_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        committed = json.load(fh)
    assert committed == spec.benchmark_json()


def test_spec_within_contract_limits():
    bench = spec.benchmark_json()
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    assert 1 <= bench["run_seconds"] <= 60
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in bench[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for metric in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in bench["workloads"])
    setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_document_schema(smoke_docs):
    doc = smoke_docs[0][0]
    assert set(doc["workloads"]) == set(spec.WORKLOADS)
    assert doc["smoke"] and doc["traced"] and doc["seed"] == spec.DEFAULT_SEED
    per_layer = {name for name, _unit, _better in spec.PER_LAYER}
    for name, report in doc["workloads"].items():
        assert report["correct"] and not report["problems"], name
        assert report["failed"] == 0 and report["attempted"] >= 1
        assert set(report["per_layer"]) == per_layer
        assert {n for n, *_ in spec.END_TO_END} == set(report["end_to_end"])
        for metric, stat in report["end_to_end"].items():
            assert NAME.match(metric) and UNIT.match(stat["unit"])
            assert stat["min"] <= stat["median"] <= stat["max"]
            assert stat["n"] == len(stat["values"]) == report["repeats"]
        measured = report["measured"]
        assert all(ticks >= 1 for ticks in measured["ticks"])
        assert all(0.05 < speed < 20 for speed in measured["host_speed"])
        run = report["end_to_end"]["host_s_per_sim_s"]["values"]
        assert run == pytest.approx(
            [t * speed / report["sim_s"] for t, speed
             in zip(measured["run_s"], measured["host_speed"])])
        for metric, m in report["per_layer"].items():
            assert NAME.match(metric) and UNIT.match(m["unit"])


def test_self_fractions_sum_to_one(smoke_docs):
    for name, report in smoke_docs[0][0]["workloads"].items():
        total = sum(m["value"] for metric, m in report["per_layer"].items()
                    if metric.endswith(".self_frac"))
        assert total == pytest.approx(1.0, abs=0.01), name


def test_counts_repeat_exactly(smoke_docs):
    (doc_a, doc_b), _ = smoke_docs
    rows, mismatches = compare.compare(doc_a, doc_b)
    assert mismatches == []
    exact = [row for row in rows if row[1] in spec.EXACT]
    assert exact and all(row[-1] == "same" for row in exact)


def test_layers_separate(smoke_docs):
    """The workloads stress different layers (the smoke-sized version of
    the acceptance criteria)."""
    reports = smoke_docs[0][0]["workloads"]

    def value(workload, metric):
        return reports[workload]["per_layer"][metric]["value"]

    assert value("fig07_write", "fs.lock_acquire_calls") > 0
    assert value("fig07_read", "fs.lock_acquire_calls") == 0
    for workload in reports:
        only_outage = workload == "outage"
        for metric in ("fs.store_write_calls", "fs.journal_records",
                       "ucx.rpc_timeouts", "bb.retries", "bb.failovers"):
            assert (value(workload, metric) > 0) == only_outage, (
                workload, metric)


def test_contract_lines(smoke_docs):
    _, stdouts = smoke_docs
    lines = [json.loads(line) for line in stdouts[0].splitlines()
             if line.startswith("{")]
    assert len(lines) == len(spec.WORKLOADS)
    for line in lines:
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert set(line["metrics"]) == {
            n for n, *_ in spec.CONTRACT_PER_LAYER}
    proc = _run("--smoke", "--workload", "outage", "--seed", "3",
                "--seconds", "0.1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line["metrics"]) == {n for n, *_ in spec.END_TO_END
                                    if n not in spec.UNBOUNDED}
    assert all(m["value"] > 0 for m in line["metrics"].values())


def test_fails_without_the_simulator(tmp_path):
    shutil.copytree(HERE, tmp_path / "ledger",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("--workload", "outage", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
