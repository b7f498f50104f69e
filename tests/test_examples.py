"""Smoke tests: every example script runs to completion.

The slow examples are exercised at reduced scale by monkeypatching
their scale constants where available; the cheap ones run as-is.
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_script(name, timeout=300):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True, text=True, timeout=timeout)


def test_examples_directory_contents():
    names = {p.name for p in EXAMPLES.glob("*.py")}
    assert {"quickstart.py", "policy_composition.py",
            "interference_study.py", "posix_shim.py",
            "lambda_sync.py", "fault_tolerance.py"} <= names


def test_fault_tolerance_example():
    result = run_script("fault_tolerance.py", timeout=60)
    assert result.returncode == 0, result.stderr
    assert "byte-for-byte intact" in result.stdout


def test_collective_io_example():
    result = run_script("collective_io.py", timeout=60)
    assert result.returncode == 0, result.stderr
    assert "request-count reduction" in result.stdout


def test_posix_shim_example():
    result = run_script("posix_shim.py", timeout=60)
    assert result.returncode == 0, result.stderr
    assert "intercepted functions" in result.stdout
    assert "burst buffer untouched: True" in result.stdout


def test_quickstart_example():
    result = run_script("quickstart.py", timeout=120)
    assert result.returncode == 0, result.stderr
    assert "sharing ratio" in result.stdout


@pytest.mark.slow
def test_policy_composition_example():
    result = run_script("policy_composition.py")
    assert result.returncode == 0, result.stderr
    assert "group-user-size-fair" in result.stdout
    assert "job5" in result.stdout


@pytest.mark.slow
def test_interference_study_example():
    result = run_script("interference_study.py")
    assert result.returncode == 0, result.stderr
    assert "size-fair removed" in result.stdout


@pytest.mark.slow
def test_lambda_sync_example():
    result = run_script("lambda_sync.py")
    assert result.returncode == 0, result.stderr
    assert "globally fair from interval" in result.stdout
