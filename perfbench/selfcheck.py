"""Quick tests of the benchmark itself.

Run explicitly (the file name keeps it out of the repository's test suite)::

    python3 -m pytest perfbench/selfcheck.py -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
from worker import run_pass  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
        check=False,
    )


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in DECLARED["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metrics_match_benchmark_json(trace):
    completed = _run(
        "--workload", "figure2-churn-scalar", "--seed", "3", "--seconds", "0",
        "--trace", trace,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    declared = DECLARED["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in declared]
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert f"{metric['name']} = " in completed.stdout
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert "failed_frac = 0 " in completed.stdout


def test_every_span_lands_in_a_declared_self_time_metric():
    per_layer = {metric["name"] for metric in DECLARED["per_layer"]}
    spans = {name for name, _, _ in tracing.SITES}
    spans |= {name for name, _, _, _ in tracing.NESTED_SITES}
    spans |= {name for name, _, _ in tracing.TREE_SITES}
    assert spans == set(tracing.SELF_METRICS)
    assert set(tracing.SELF_METRICS.values()) <= per_layer
    assert set(tracing.CALL_METRICS.values()) <= per_layer


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_two_seeds_same_shape_different_run_seeds(name):
    first = WORKLOADS[name].build(1, False).expand()
    second = WORKLOADS[name].build(2, False).expand()
    assert [run.run_id for run in first] == [run.run_id for run in second]
    differing = sum(a.sim_seed != b.sim_seed for a, b in zip(first, second))
    assert differing == len(first)


def test_wrappers_are_removed_after_a_traced_pass(tmp_path):
    before = tracing.original_bindings()
    tracer = tracing.Tracer()
    with tracing.Wrappers(tracer):
        assert tracing.original_bindings() != before
        run_pass(WORKLOADS["figure2-churn-scalar"].build(1, True), tmp_path)
    assert tracing.original_bindings() == before
    assert len(tracer) > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_and_untraced_digests_are_equal(name, tmp_path):
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.observer import Observer

    spec = WORKLOADS[name].build(5, True)
    plain = run_pass(spec, tmp_path)
    with tracing.Wrappers(tracing.Tracer()):
        traced = run_pass(spec, tmp_path, Observer(metrics=MetricsRegistry()))
    assert checks.digest(traced.results) == checks.digest(plain.results)
    assert checks.digest(run_pass(spec, tmp_path).results) == checks.digest(plain.results)


def test_self_time_subtracts_child_spans():
    spans = {
        "start": np.array([0.0, 1.0, 2.0, 5.0]),
        "end": np.array([10.0, 4.0, 3.0, 6.0]),
        "parent": np.array([-1, 0, 1, 0], dtype=np.int32),
    }
    assert tracing.self_times(spans).tolist() == [6.0, 2.0, 1.0, 1.0]


def test_output_checks_flag_a_bound_violation_and_a_fallback(tmp_path):
    spec = WORKLOADS["figure2-batch"].build(1, True)
    runs = spec.expand()
    results = run_pass(spec, tmp_path).results
    bounds = checks.paper_bounds(spec)
    assert checks.run_failures(spec, runs, results, bounds) == {}
    broken = [dataclasses.replace(results[0], within_bound=False)]
    failures = checks.run_failures(spec, runs, broken + results[1:], bounds)
    assert results[0].run_id in failures

    class Stats:
        batched = len(runs) - 1
        fallback = 1
        fallback_reasons = ["x: some reason"]

    assert checks.path_failures(spec, Stats, len(runs))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench")
    completed = _run(
        "--workload", "grid-many-cells", "--seed", "1", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert completed.returncode != 0
    assert completed.stdout.strip() == ""
