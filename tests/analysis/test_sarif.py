"""SARIF output: the code-scanning contract."""

import json
from pathlib import Path

from repro.analysis import analyze_paths, to_sarif
from repro.analysis.cli import main

FIXTURES = Path(__file__).parent / "fixtures" / "project"


def taint_findings():
    root = FIXTURES / "bad_taint_chain"
    return analyze_paths([root], root=root).findings


class TestSarifLog:
    def test_log_shape(self):
        log = to_sarif(taint_findings())
        assert log["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in log["$schema"]
        (run,) = log["runs"]
        assert run["tool"]["driver"]["name"] == "repro-lint"
        (result,) = run["results"]
        assert result["ruleId"] == "transitive-wallclock"
        assert result["level"] == "error"
        assert "repro.entry.simulate" in result["message"]["text"]

    def test_rules_metadata_covers_every_result(self):
        log = to_sarif(taint_findings())
        (run,) = log["runs"]
        rule_ids = {rule["id"] for rule in run["tool"]["driver"]["rules"]}
        assert rule_ids == {"transitive-wallclock"}
        (rule,) = run["tool"]["driver"]["rules"]
        assert rule["shortDescription"]["text"]

    def test_location_uses_srcroot_relative_uri(self):
        log = to_sarif(taint_findings())
        (result,) = log["runs"][0]["results"]
        (location,) = result["locations"]
        physical = location["physicalLocation"]
        assert physical["artifactLocation"] == {
            "uri": "repro/entry.py",
            "uriBaseId": "SRCROOT",
        }
        assert physical["region"]["startLine"] == 6

    def test_fingerprint_matches_the_finding(self):
        (finding,) = taint_findings()
        (result,) = to_sarif([finding])["runs"][0]["results"]
        assert result["partialFingerprints"] == {
            "reproLintFingerprint/v1": finding.fingerprint
        }

    def test_chain_becomes_a_code_flow(self):
        (finding,) = taint_findings()
        (result,) = to_sarif([finding])["runs"][0]["results"]
        (flow,) = result["codeFlows"]
        locations = flow["threadFlows"][0]["locations"]
        assert len(locations) == len(finding.chain)
        first = locations[0]["location"]
        assert first["message"]["text"] == "repro.entry.simulate"
        last = locations[-1]["location"]
        assert last["message"]["text"] == "time.time"
        assert (
            last["physicalLocation"]["artifactLocation"]["uri"]
            == "lib/deep.py"
        )

    def test_chainless_findings_have_no_code_flow(self):
        root = FIXTURES / "bad_schema_drift"
        findings = analyze_paths([root], root=root).findings
        log = to_sarif(findings)
        assert all(
            "codeFlows" not in result
            for result in log["runs"][0]["results"]
        )

    def test_empty_log_is_still_valid(self):
        log = to_sarif([])
        assert log["runs"][0]["results"] == []
        assert log["runs"][0]["tool"]["driver"]["rules"] == []


class TestSarifCli:
    def test_format_sarif_prints_a_log(self, capsys):
        root = FIXTURES / "bad_taint_chain"
        code = main(
            [
                "--no-baseline",
                "--format",
                "sarif",
                "--root",
                str(root),
                str(root),
            ]
        )
        assert code == 1
        log = json.loads(capsys.readouterr().out)
        assert log["runs"][0]["results"][0]["ruleId"] == "transitive-wallclock"

    def test_sarif_flag_writes_a_file_without_changing_exit(
        self, tmp_path, capsys
    ):
        root = FIXTURES / "good_schema"
        out = tmp_path / "deep" / "lint.sarif"
        code = main(
            [
                "--no-baseline",
                "--sarif",
                str(out),
                "--root",
                str(root),
                str(root),
            ]
        )
        assert code == 0
        log = json.loads(out.read_text())
        assert log["runs"][0]["results"] == []
