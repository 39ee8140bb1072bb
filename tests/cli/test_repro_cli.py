"""End-to-end tests of the unified ``python -m repro`` CLI."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro._version import __version__
from repro.cli import main

REPO_SRC = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")


class TestVersion:
    def test_version_flag_prints_package_version(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.strip() == __version__


class TestList:
    def test_lists_all_kinds_with_descriptions(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Algorithms:" in out and "Adversaries:" in out and "Experiments:" in out
        for name in ("figure2", "sampled-boosted", "phase-king-skew", "none", "table1"):
            assert name in out

    def test_model_filter(self, capsys):
        assert main(["list", "algorithms", "--model", "pulling"]) == 0
        out = capsys.readouterr().out
        assert "sampled-boosted" in out
        assert "naive-majority" not in out

    def test_lists_fault_schedules_with_details(self, capsys):
        assert main(["list", "fault-schedules"]) == 0
        out = capsys.readouterr().out
        assert "Fault schedules:" in out
        for name in ("churn", "rolling", "late-adversary"):
            assert name in out
        assert main(["list", "fault-schedules", "--verbose"]) == 0
        verbose = capsys.readouterr().out
        assert "scalar engine only" in verbose
        assert "start" in verbose and "down" in verbose

    def test_fault_schedules_included_in_all(self, capsys):
        assert main(["list", "all"]) == 0
        out = capsys.readouterr().out
        assert "Fault schedules:" in out and "Algorithms:" in out


class TestRun:
    ARGS = [
        "run",
        "naive-majority:n=6,c=3,claimed_resilience=1",
        "--adversary",
        "crash",
        "--faults",
        "1",
        "--runs",
        "2",
        "--max-rounds",
        "60",
        "--stop-after-agreement",
        "5",
        "--quiet",
    ]

    def test_run_prints_summary(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "2 runs (2 executed, 0 resumed, 0 failed)" in out
        assert "Scenario summary" in out

    def test_run_with_store_resumes(self, tmp_path, capsys):
        store = str(tmp_path / "runs.jsonl")
        assert main([*self.ARGS, "--store", store]) == 0
        assert "2 executed, 0 resumed" in capsys.readouterr().out
        assert main([*self.ARGS, "--store", store]) == 0
        assert "0 executed, 2 resumed" in capsys.readouterr().out
        rows = [json.loads(line) for line in open(store, encoding="utf-8") if line.strip()]
        assert len(rows) == 2

    def test_run_pulling_scenario_records_pull_statistics(self, tmp_path, capsys):
        store = str(tmp_path / "pull.jsonl")
        code = main(
            [
                "run",
                "sampled-boosted:sample_size=2",
                "--adversary",
                "crash",
                "--faults",
                "1",
                "--runs",
                "2",
                "--max-rounds",
                "30",
                "--stop-after-agreement",
                "5",
                "--quiet",
                "--store",
                store,
            ]
        )
        assert code == 0
        rows = [json.loads(line) for line in open(store, encoding="utf-8") if line.strip()]
        assert len(rows) == 2
        assert all(row["model"] == "pulling" for row in rows)
        assert all(row["max_pulls"] and row["max_bits"] for row in rows)

    def test_unknown_algorithm_is_one_line_error(self, capsys):
        assert main(["run", "does-not-exist", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "does-not-exist" in err

    def test_unknown_adversary_is_one_line_error(self, capsys):
        assert main(["run", "trivial", "--adversary", "bogus", "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "unknown adversary 'bogus'" in err

    def test_run_with_fault_schedule_reports_recovery(self, tmp_path, capsys):
        store = str(tmp_path / "churn.jsonl")
        code = main(
            [
                "run",
                "naive-majority:n=6,c=3,claimed_resilience=1",
                "--fault-schedule",
                "churn:start=3,down=2,adversarial=2",
                "--runs",
                "2",
                "--max-rounds",
                "40",
                "--stop-after-agreement",
                "4",
                "--quiet",
                "--store",
                store,
            ]
        )
        assert code == 0
        rows = [json.loads(line) for line in open(store, encoding="utf-8") if line.strip()]
        assert len(rows) == 2
        assert all(row["last_perturbation_round"] == 7 for row in rows)
        assert all("recovered" in row for row in rows)

    def test_run_with_loss_and_delay(self, capsys):
        code = main(
            [
                "run",
                "naive-majority:n=6,c=3,claimed_resilience=1",
                "--loss",
                "0.1",
                "--delay",
                "1",
                "--runs",
                "2",
                "--max-rounds",
                "40",
                "--quiet",
            ]
        )
        assert code == 0
        assert "2 runs (2 executed" in capsys.readouterr().out

    def test_fault_schedule_rejected_for_pulling_algorithms(self, capsys):
        code = main(
            [
                "run",
                "sampled-boosted:sample_size=2",
                "--fault-schedule",
                "churn",
                "--quiet",
            ]
        )
        assert code == 2
        assert "broadcast" in capsys.readouterr().err


class TestCampaignMount:
    def test_define_run_resume_summarize(self, tmp_path, capsys):
        spec_path = str(tmp_path / "demo.campaign.json")
        assert (
            main(
                [
                    "campaign",
                    "define",
                    "--name",
                    "demo",
                    "--algorithm",
                    "naive-majority:n=6,c=3,claimed_resilience=1",
                    "--adversary",
                    "crash",
                    "--runs",
                    "2",
                    "--max-rounds",
                    "60",
                    "--stop-after-agreement",
                    "5",
                    "--out",
                    spec_path,
                ]
            )
            == 0
        )
        store_path = str(tmp_path / "demo.jsonl")
        assert main(["campaign", "run", spec_path, "--store", store_path, "--quiet"]) == 0
        assert "2 executed, 0 resumed" in capsys.readouterr().out
        assert (
            main(["campaign", "resume", spec_path, "--store", store_path, "--quiet"]) == 0
        )
        assert "0 executed, 2 resumed" in capsys.readouterr().out
        assert main(["campaign", "summarize", store_path]) == 0
        assert "Campaign summary" in capsys.readouterr().out


class TestVerify:
    def test_verify_trivial_counter(self, capsys):
        assert main(["verify", "trivial:c=3"]) == 0
        out = capsys.readouterr().out
        assert "VERIFIED" in out
        assert "3-counter" in out

    def test_verify_rejects_pulling_algorithms(self, capsys):
        assert main(["verify", "sampled-boosted"]) == 2
        assert "broadcast-model" in capsys.readouterr().err


class TestExperimentCommand:
    """``repro experiment X`` end to end, in process, at reduced parameters.

    Each experiment must exit 0, print its tables, and print exactly the
    same bytes when invoked twice (every experiment is fixed-seed).
    """

    ARGV = {
        "figure1": [],
        "figure2": ["--trials", "2"],
        "table1": ["--trials", "2", "--randomized-trials", "3"],
        "table2": ["--trials", "4"],
        "scaling": ["--trials", "1", "--measured-trials", "1"],
        "pulling": ["--trials", "1", "--link-seeds", "2"],
        "ablation": ["--trials", "1"],
    }

    @pytest.mark.parametrize("name", sorted(ARGV))
    def test_experiment_output_is_reproducible(self, name, capsys):
        outputs = []
        for _ in range(2):
            assert main(["experiment", name, *self.ARGV[name]]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0]
        assert outputs[0] == outputs[1]


class TestOOResilience:
    def test_cli_help_works_under_python_OO(self):
        """Descriptions are explicit strings, so -OO (stripped docstrings) works."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath(REPO_SRC) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        for argv in (
            ["-m", "repro", "--help"],
            ["-m", "repro", "experiment", "--help"],
            ["-m", "repro", "experiment", "scaling", "--help"],
            ["-m", "repro", "campaign", "--help"],
        ):
            completed = subprocess.run(
                [sys.executable, "-OO", *argv],
                capture_output=True,
                env=env,
                timeout=120,
            )
            assert completed.returncode == 0, completed.stderr.decode()
