"""Exit codes are part of the CLI contract: 0 only on full success,
nonzero on any failure — so CI jobs and scripts can gate on them
without parsing output.  Also covers ``repro chaos --json``."""

import json

import pytest

from repro.cli import main


class TestChaosExitCodes:
    def test_passing_campaign_exits_zero_and_emits_json(self, capsys):
        rc = main(["chaos", "--seeds", "1", "--workloads", "mcf_r",
                   "--schemes", "unsafe", "--instructions", "600",
                   "--threads", "1", "--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert report["schemes"] == ["unsafe"]
        assert report["cells"][0]["seed_runs"][0]["ok"] is True

    def test_json_report_matches_out_file(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        rc = main(["chaos", "--seeds", "1", "--workloads", "mcf_r",
                   "--schemes", "unsafe", "--instructions", "600",
                   "--threads", "1", "--json", "--out", str(out)])
        assert rc == 0
        stdout_report = json.loads(capsys.readouterr().out)
        assert json.loads(out.read_text()) == stdout_report

    def test_bad_arguments_exit_nonzero(self):
        with pytest.raises(SystemExit):
            main(["chaos", "--seeds", "0", "--workloads", "mcf_r",
                  "--schemes", "unsafe"])
        with pytest.raises(SystemExit):
            main(["chaos", "--workloads", "", "--schemes", "unsafe"])

    def test_unknown_workload_exits_nonzero(self):
        with pytest.raises(SystemExit, match="unknown workload"):
            main(["chaos", "--seeds", "1", "--workloads", "nosuch_r",
                  "--schemes", "unsafe"])


class TestAttackExitCodes:
    """``repro attack``: 0 matrix matches, 1 unexpected leak/block or
    undetected mutant, 2 tool error — distinct codes so CI can tell
    "defense regressed" from "campaign broke"."""

    ARGS = ["attack", "--seeds", "1", "--schemes", "unsafe,stt-comp",
            "--classes", "secret_reg", "--no-self-test"]

    def test_matching_matrix_exits_zero_and_emits_json(self, capsys):
        rc = main(self.ARGS + ["--json"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert report["schemes"] == ["unsafe", "stt-comp"]
        cells = {(c["attack"], c["scheme"]): c for c in report["cells"]}
        assert cells[("secret_reg", "unsafe")]["verdict"] == "leaks"
        assert cells[("secret_reg", "stt-comp")]["verdict"] == "leaks"

    def test_out_file_is_the_canonical_matrix_artifact(self, capsys,
                                                       tmp_path):
        out = tmp_path / "matrix.json"
        rc = main(self.ARGS + ["--json", "--out", str(out)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        artifact = json.loads(out.read_text())
        assert artifact["format"] == 1
        assert artifact["matrix"]["secret_reg"]["stt-comp"] == "leaks"
        for cell in report["cells"]:
            assert artifact["matrix"][cell["attack"]][cell["scheme"]] \
                == cell["verdict"]

    def test_verdict_drift_is_exit_one(self, capsys, monkeypatch):
        from repro.security import campaign
        monkeypatch.setattr(campaign, "expected_verdict",
                            lambda attack, scheme: "blocks")
        rc = main(self.ARGS)
        assert rc == 1
        assert "expected blocks, observed leaks" \
            in capsys.readouterr().out

    def test_bad_arguments_exit_nonzero(self):
        with pytest.raises(SystemExit, match="unknown scheme"):
            main(["attack", "--schemes", "nosuch"])
        with pytest.raises(SystemExit, match="unknown attack"):
            main(["attack", "--classes", "nosuch"])
        with pytest.raises(SystemExit, match="seeds"):
            main(["attack", "--seeds", "0"])

    def test_internal_error_is_exit_two(self, capsys, monkeypatch):
        from repro.security import campaign
        def boom(*_args, **_kwargs):
            raise RuntimeError("worker exploded")
        monkeypatch.setattr(campaign, "run_campaign", boom)
        rc = main(self.ARGS)
        assert rc == 2
        assert "internal error" in capsys.readouterr().err


class TestAnalyzeExitCodes:
    """``repro verify analyze``: 0 clean, 1 findings, 2 internal error —
    distinct codes so CI can tell "contract violated" from "tool broke"."""

    def test_clean_tree_is_exit_zero(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("VALUE = 1\n")
        assert main(["verify", "analyze", str(clean)]) == 0

    def test_findings_are_exit_one(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import time\nnow = time.time()\n")
        assert main(["verify", "analyze", str(dirty)]) == 1
        assert "wall-clock" in capsys.readouterr().out

    def test_internal_error_is_exit_two(self, tmp_path, capsys,
                                        monkeypatch):
        from repro.verify.passes.lint_pass import LintPass

        def boom(self, ctx):
            raise RuntimeError("synthetic pass crash")

        monkeypatch.setattr(LintPass, "run", boom)
        clean = tmp_path / "clean.py"
        clean.write_text("VALUE = 1\n")
        assert main(["verify", "analyze", str(clean)]) == 2
        assert "internal error" in capsys.readouterr().err

    def test_missing_path_exits_nonzero(self):
        with pytest.raises(SystemExit):
            main(["verify", "analyze", "/no/such/path"])

    def test_unknown_pass_exits_nonzero(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("VALUE = 1\n")
        with pytest.raises(SystemExit, match="unknown pass"):
            main(["verify", "analyze", str(clean),
                  "--passes", "nosuch-pass"])

    def test_json_report_round_trips(self, tmp_path, capsys):
        from repro.verify.passes import Report

        dirty = tmp_path / "dirty.py"
        dirty.write_text("import time\nnow = time.time()\n")
        rc = main(["verify", "analyze", str(dirty), "--json"])
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == 1
        assert doc["summary"]["errors"] >= 1
        report = Report.from_doc(doc)
        assert report.to_doc() == doc
        assert [f.rule for f in report.findings] \
            == [f["rule"] for f in doc["findings"]]

    def test_json_matches_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import time\nnow = time.time()\n")
        main(["verify", "analyze", str(dirty), "--json",
              "--out", str(out)])
        stdout_doc = json.loads(capsys.readouterr().out)
        assert json.loads(out.read_text()) == stdout_doc
