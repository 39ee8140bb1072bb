"""The benchmark ledger: pair statistics and the committed rows' shape."""

from __future__ import annotations

import importlib.util
import json
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def ledger():
    spec = importlib.util.spec_from_file_location(
        "bench_ledger", REPO_ROOT / "scripts" / "bench_ledger.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def row(
    sha: str,
    workload: str,
    seed: int = 1,
    dirty: bool = False,
    correct: bool = True,
    **metrics: float,
) -> dict:
    return {
        "sha": sha,
        "workload": workload,
        "seed": seed,
        "seconds": 12.0,
        "trace": 0,
        "dirty": dirty,
        "result": {
            "correct": correct,
            "metrics": {name: {"value": v} for name, v in metrics.items()},
        },
    }


def test_compare_pairs_rows_in_ledger_order(ledger):
    rows = []
    for base, head in [(100, 130), (110, 120), (90, 95), (105, 104)]:
        rows += [row("aaaa1", "grid", runs_per_s=base), row("bbbb2", "grid", runs_per_s=head)]
    rows.append(row("bbbb2", "grid", runs_per_s=500))  # unpaired: ignored
    rows.append(row("aaaa1", "other", setup_s=1.0))  # no such metric: ignored
    [entry] = ledger.compare(rows, "aaaa", "bbbb", "runs_per_s", True)
    assert entry["workload"] == "grid"
    assert entry["pairs"] == 4
    assert entry["wins"] == 3
    assert entry["base_median"] == 102.5
    assert entry["head_median"] == 112.0


def test_compare_pairs_within_a_configuration_and_skips_unclean_rows(ledger):
    rows = [
        row("aaaa1", "grid", seed=1, runs_per_s=100),
        row("aaaa1", "grid", seed=2, runs_per_s=1000),  # no seed-2 partner
        row("aaaa1", "grid", seed=1, correct=False, runs_per_s=1),  # failed checks
        row("aaaa1", "grid", seed=1, dirty=True, runs_per_s=2),  # uncommitted tree
        row("aaaa1", "grid", seed=1, runs_per_s=110),
        row("bbbb2", "grid", seed=1, runs_per_s=120),
        row("bbbb2", "grid", seed=1, runs_per_s=130),
    ]
    [entry] = ledger.compare(rows, "aaaa", "bbbb", "runs_per_s", True)
    assert entry["pairs"] == 2
    assert entry["wins"] == 2
    assert entry["base_median"] == 105.0
    assert entry["head_median"] == 125.0


def test_clear_needs_nine_wins_in_ten(ledger):
    values = [(100, 200)] * 6 + [(100, 99)] * 4
    rows = []
    for base, head in values:
        rows += [row("a", "w", runs_per_s=base), row("b", "w", runs_per_s=head)]
    [entry] = ledger.compare(rows, "a", "b", "runs_per_s", True)
    assert entry["wins"] == 6
    assert entry["head_median"] - entry["base_median"] > entry["base_iqr"]
    assert not entry["clear"]


def test_compare_respects_the_metric_direction(ledger):
    rows = []
    for base, head in [(1.0, 0.5), (1.1, 0.6), (0.9, 0.4)]:
        rows += [row("a", "w", setup_s=base), row("b", "w", setup_s=head)]
    [lower] = ledger.compare(rows, "a", "b", "setup_s", False)
    assert lower["wins"] == 3 and lower["clear"]
    [higher] = ledger.compare(rows, "a", "b", "setup_s", True)
    assert higher["wins"] == 0 and not higher["clear"]


def test_committed_ledger_rows_are_stamped():
    path = REPO_ROOT / "BENCH_history.jsonl"
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert rows
    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = {workload["name"] for workload in declared["workloads"]}
    for entry in rows:
        assert re.fullmatch(r"[0-9a-f]{40}", entry["sha"])
        assert re.fullmatch(r"[0-9a-f]{64}", entry["digest"])
        assert entry["workload"] in workloads
        assert entry["host"]["cpus"] >= 1
        assert entry["result"]["correct"] and not entry["dirty"]
        assert entry["seconds"] == declared["run_seconds"]
        assert entry["result"]["metrics"]["runs_per_s" if entry["trace"] == 0 else "spec.runs"]


def test_run_records_only_passing_runs(ledger, monkeypatch, tmp_path):
    path = tmp_path / "ledger.jsonl"
    outcome = {"code": 1}
    seen = []

    def measure(checkout, workload, seed, seconds, trace):
        seen.append(seconds)
        entry = row("c" * 40, workload, correct=outcome["code"] == 0, runs_per_s=10.0)
        entry["digest"] = "d" * 64
        return outcome["code"], entry

    monkeypatch.setattr(ledger, "measure", measure)
    argv = ["--ledger", str(path), "run", "--workload", "grid", "--seed", "1"]
    assert ledger.main(argv) == 1
    assert not path.exists()
    outcome["code"] = 0
    assert ledger.main(argv) == 0
    assert len(path.read_text(encoding="utf-8").splitlines()) == 1
    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert seen == [declared["run_seconds"]] * 2
