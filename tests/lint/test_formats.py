"""SARIF and GitHub-annotation renderers, unit and end-to-end."""

import json
import textwrap

from repro.lint.core import Finding, Severity, all_rules
from repro.lint.formats import FORMATS, to_github, to_sarif
from repro.lint.runner import main


def sample_findings():
    return [
        Finding(rule="DET002", severity=Severity.ERROR,
                path="src/demo/hazard.py", line=4, col=11,
                message="ad-hoc generator"),
        Finding(rule="LINT002", severity=Severity.ADVISORY,
                path="src/demo/stale.py", line=9, col=0,
                message="waiver for DET004 suppressed nothing"),
    ]


def test_formats_tuple_is_the_cli_contract():
    assert FORMATS == ("text", "sarif", "github")


def test_sarif_structure_and_level_mapping():
    log = to_sarif(sample_findings(), all_rules())
    assert log["version"] == "2.1.0"
    run = log["runs"][0]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    rule_ids = {r["id"] for r in driver["rules"]}
    assert {"DET002", "PROTO101", "DET007"} <= rule_ids
    results = run["results"]
    assert results[0]["level"] == "error"
    assert results[1]["level"] == "note"
    region = results[0]["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == 4
    assert region["startColumn"] == 12  # ast col 11 -> SARIF 1-based


def test_sarif_is_json_serialisable():
    json.dumps(to_sarif(sample_findings(), all_rules()))


def test_github_annotations_escape_and_map_severity():
    findings = [Finding(rule="SIM001", severity=Severity.WARNING,
                        path="src/a.py", line=3, col=2,
                        message="50% risk\nsecond line")]
    (line,) = to_github(findings)
    assert line.startswith("::warning file=src/a.py,line=3,col=3,"
                          "title=SIM001::")
    assert "\n" not in line and "%0A" in line
    assert "50%25 risk" in line


def test_cli_sarif_output_end_to_end(tmp_path, monkeypatch):
    pkg = tmp_path / "src" / "demo"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "hazard.py").write_text(textwrap.dedent("""
        import numpy as np

        def bad():
            return np.random.default_rng(0).random()
    """))
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "lint.sarif"
    code = main([str(tmp_path / "src"), "--no-baseline", "--no-cache",
                 "--format", "sarif", "--output", str(out)])
    assert code == 1
    log = json.loads(out.read_text())
    results = log["runs"][0]["results"]
    assert any(r["ruleId"] == "DET002" for r in results)


def test_cli_github_format_prints_commands(tmp_path, monkeypatch, capsys):
    pkg = tmp_path / "src" / "demo"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "hazard.py").write_text("import time\n"
                                   "def t():\n"
                                   "    return time.time()\n")
    monkeypatch.chdir(tmp_path)
    code = main([str(tmp_path / "src"), "--no-baseline", "--no-cache",
                 "--format", "github"])
    captured = capsys.readouterr().out
    assert code == 1
    assert "::error " in captured and "title=DET003" in captured
