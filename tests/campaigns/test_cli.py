"""End-to-end tests of the ``python -m repro campaign`` commands."""

from __future__ import annotations

import json

import pytest

from repro.cli import main as repro_main


def main(argv: list[str]) -> int:
    """``repro campaign <argv>`` in process."""
    return repro_main(["campaign", *argv])


def define_small_campaign(tmp_path, runs: int = 2) -> str:
    spec_path = str(tmp_path / "demo.campaign.json")
    code = main(
        [
            "define",
            "--name",
            "demo",
            "--algorithm",
            "naive-majority:n=6,c=3,claimed_resilience=1",
            "--adversary",
            "crash",
            "--adversary",
            "random-state",
            "--runs",
            str(runs),
            "--max-rounds",
            "60",
            "--stop-after-agreement",
            "5",
            "--seed",
            "3",
            "--out",
            spec_path,
        ]
    )
    assert code == 0
    return spec_path


class TestDefine:
    def test_writes_spec_file(self, tmp_path, capsys):
        spec_path = define_small_campaign(tmp_path)
        data = json.loads(open(spec_path, encoding="utf-8").read())
        assert data["name"] == "demo"
        assert data["adversaries"] == ["crash", "random-state"]
        assert data["algorithms"][0]["params"]["n"] == 6
        assert "4 runs" in capsys.readouterr().out

    def test_rejects_malformed_algorithm(self, tmp_path):
        with pytest.raises(SystemExit):
            main(
                [
                    "define",
                    "--name",
                    "bad",
                    "--algorithm",
                    "trivial:c",
                    "--out",
                    str(tmp_path / "x.json"),
                ]
            )


class TestParseFaultSchedule:
    def test_name_and_params(self):
        from repro.campaigns.cli import parse_fault_schedule

        assert parse_fault_schedule("churn") == ("churn", ())
        assert parse_fault_schedule("churn:start=5,down=6") == (
            "churn",
            (("down", 6), ("start", 5)),
        )

    def test_malformed_rejected(self):
        import argparse

        from repro.campaigns.cli import parse_fault_schedule

        with pytest.raises(argparse.ArgumentTypeError):
            parse_fault_schedule("churn:start")


class TestFaultInjectionFlags:
    def test_define_records_perturbation_axes(self, tmp_path, capsys):
        spec_path = str(tmp_path / "churny.campaign.json")
        code = main(
            [
                "define",
                "--name",
                "churny",
                "--algorithm",
                "naive-majority:n=6,c=3,claimed_resilience=1",
                "--fault-schedule",
                "churn:start=4,down=3",
                "--loss",
                "0.05",
                "--delay",
                "1",
                "--runs",
                "2",
                "--max-rounds",
                "50",
                "--out",
                spec_path,
            ]
        )
        assert code == 0
        data = json.loads(open(spec_path, encoding="utf-8").read())
        assert data["fault_schedule"] == "churn"
        assert data["fault_schedule_params"] == {"down": 3, "start": 4}
        assert data["loss"] == 0.05
        assert data["delay"] == 1
        # Scheduled campaigns default to the fault-free baseline adversary.
        assert data["adversaries"] == ["none"]

    def test_run_executes_scheduled_campaign(self, tmp_path, capsys):
        spec_path = str(tmp_path / "churny.campaign.json")
        store_path = str(tmp_path / "churny.jsonl")
        assert (
            main(
                [
                    "define",
                    "--name",
                    "churny",
                    "--algorithm",
                    "naive-majority:n=6,c=3,claimed_resilience=1",
                    "--fault-schedule",
                    "churn:start=3,down=2,adversarial=2",
                    "--runs",
                    "2",
                    "--max-rounds",
                    "40",
                    "--stop-after-agreement",
                    "4",
                    "--out",
                    spec_path,
                ]
            )
            == 0
        )
        assert main(["run", spec_path, "--store", store_path, "--quiet"]) == 0
        from repro.campaigns.results import CampaignStore

        results = CampaignStore(store_path).load()
        assert len(results) == 2
        assert all(result.last_perturbation_round == 7 for result in results)

    def test_unknown_schedule_is_rejected_at_define_time(self, tmp_path, capsys):
        code = main(
            [
                "define",
                "--name",
                "bad",
                "--algorithm",
                "trivial:c=3",
                "--fault-schedule",
                "meteor-strike",
                "--out",
                str(tmp_path / "x.json"),
            ]
        )
        assert code != 0
        assert "meteor-strike" in capsys.readouterr().err


class TestRunAndResume:
    def test_run_persists_store_and_resume_skips(self, tmp_path, capsys):
        spec_path = define_small_campaign(tmp_path)
        store_path = str(tmp_path / "demo.jsonl")

        code = main(["run", spec_path, "--store", store_path, "--quiet"])
        assert code == 0
        lines = [
            line
            for line in open(store_path, encoding="utf-8").read().splitlines()
            if line.strip()
        ]
        assert len(lines) == 4
        out = capsys.readouterr().out
        assert "4 executed, 0 resumed, 0 failed" in out

        code = main(["resume", spec_path, "--store", store_path, "--quiet"])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 executed, 4 resumed, 0 failed" in out
        # No duplicate lines were appended on resume.
        lines_after = [
            line
            for line in open(store_path, encoding="utf-8").read().splitlines()
            if line.strip()
        ]
        assert lines_after == lines

    def test_parallel_run_matches_serial(self, tmp_path):
        spec_path = define_small_campaign(tmp_path, runs=3)
        serial_store = str(tmp_path / "serial.jsonl")
        parallel_store = str(tmp_path / "parallel.jsonl")

        assert main(["run", spec_path, "--store", serial_store, "--quiet"]) == 0
        assert (
            main(
                [
                    "run",
                    spec_path,
                    "--store",
                    parallel_store,
                    "--jobs",
                    "2",
                    "--quiet",
                ]
            )
            == 0
        )
        parse = lambda path: sorted(
            json.loads(line)["run_id"] + ":" + line
            for line in open(path, encoding="utf-8")
            if line.strip()
        )
        assert parse(serial_store) == parse(parallel_store)

    def test_progress_lines_printed(self, tmp_path, capsys):
        spec_path = define_small_campaign(tmp_path)
        store_path = str(tmp_path / "demo.jsonl")
        main(["run", spec_path, "--store", store_path])
        out = capsys.readouterr().out
        assert "[1/4]" in out and "[4/4]" in out


class TestErrorPaths:
    def test_unknown_algorithm_is_one_line_error(self, tmp_path, capsys):
        code = main(
            [
                "define",
                "--name",
                "x",
                "--algorithm",
                "does-not-exist",
                "--out",
                str(tmp_path / "x.json"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "does-not-exist" in err

    def test_missing_spec_file(self, tmp_path, capsys):
        code = main(
            ["run", str(tmp_path / "missing.json"), "--store", str(tmp_path / "s.jsonl")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_spec_file(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json", encoding="utf-8")
        code = main(["run", str(bad), "--store", str(tmp_path / "s.jsonl")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_group_by_field(self, tmp_path, capsys):
        spec_path = define_small_campaign(tmp_path)
        store_path = str(tmp_path / "demo.jsonl")
        main(["run", spec_path, "--store", store_path, "--quiet"])
        capsys.readouterr()
        code = main(["summarize", store_path, "--group-by", "bogus_field"])
        assert code == 2
        err = capsys.readouterr().err
        assert "bogus_field" in err and "valid fields" in err


class TestPullingModelRoundTrip:
    """define -> run -> resume -> summarize for a pulling-model grid."""

    def define_pulling_campaign(self, tmp_path) -> str:
        spec_path = str(tmp_path / "pull.campaign.json")
        code = main(
            [
                "define",
                "--name",
                "pull-demo",
                "--model",
                "pulling",
                "--algorithm",
                "sampled-boosted:sample_size=2",
                "--adversary",
                "crash",
                "--adversary",
                "random-state",
                "--num-faults",
                "1",
                "--runs",
                "2",
                "--max-rounds",
                "30",
                "--stop-after-agreement",
                "5",
                "--out",
                spec_path,
            ]
        )
        assert code == 0
        return spec_path

    def test_define_records_model(self, tmp_path):
        spec_path = self.define_pulling_campaign(tmp_path)
        data = json.loads(open(spec_path, encoding="utf-8").read())
        assert data["model"] == "pulling"
        assert data["algorithms"][0]["name"] == "sampled-boosted"

    def test_run_resume_and_summarize(self, tmp_path, capsys):
        spec_path = self.define_pulling_campaign(tmp_path)
        store_path = str(tmp_path / "pull.jsonl")

        assert main(["run", spec_path, "--store", store_path, "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "4 executed, 0 resumed, 0 failed" in out

        rows = [
            json.loads(line)
            for line in open(store_path, encoding="utf-8")
            if line.strip()
        ]
        assert len(rows) == 4
        assert all(row["model"] == "pulling" for row in rows)
        assert all(row["max_pulls"] is not None and row["max_pulls"] > 0 for row in rows)
        # max_bits = max_pulls x message bits, so it is a strictly larger multiple.
        assert all(
            row["max_bits"] >= row["max_pulls"]
            and row["max_bits"] % row["max_pulls"] == 0
            for row in rows
        )
        assert all(row["error"] is None for row in rows)

        assert main(["resume", spec_path, "--store", store_path, "--quiet"]) == 0
        assert "0 executed, 4 resumed, 0 failed" in capsys.readouterr().out

        assert main(["summarize", store_path]) == 0
        out = capsys.readouterr().out
        assert "max_pulls" in out
        assert "max_bits" in out

    def test_broadcast_algorithm_in_pulling_grid_is_rejected(self, tmp_path, capsys):
        code = main(
            [
                "define",
                "--name",
                "mismatch",
                "--model",
                "pulling",
                "--algorithm",
                "naive-majority:n=6,c=3,claimed_resilience=1",
                "--out",
                str(tmp_path / "x.json"),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "broadcast-model algorithm" in err

    def test_parallel_pulling_run_matches_serial(self, tmp_path):
        spec_path = self.define_pulling_campaign(tmp_path)
        serial_store = str(tmp_path / "serial.jsonl")
        parallel_store = str(tmp_path / "parallel.jsonl")
        assert main(["run", spec_path, "--store", serial_store, "--quiet"]) == 0
        assert (
            main(["run", spec_path, "--store", parallel_store, "--jobs", "2", "--quiet"])
            == 0
        )
        parse = lambda path: sorted(
            line for line in open(path, encoding="utf-8") if line.strip()
        )
        assert parse(serial_store) == parse(parallel_store)


class TestSummarize:
    def test_summarize_reports_stabilization_statistics(self, tmp_path, capsys):
        spec_path = define_small_campaign(tmp_path)
        store_path = str(tmp_path / "demo.jsonl")
        main(["run", spec_path, "--store", store_path, "--quiet"])
        capsys.readouterr()

        assert main(["summarize", store_path]) == 0
        out = capsys.readouterr().out
        assert "Campaign summary" in out
        assert "stabilized" in out
        assert "mean_round" in out

    def test_summarize_empty_store(self, tmp_path, capsys):
        missing = str(tmp_path / "empty.jsonl")
        assert main(["summarize", missing]) == 1
        assert "no results" in capsys.readouterr().out
