"""Unit tests for trace metrics and the statistics helpers."""

from __future__ import annotations

import pytest

from repro.analysis.metrics import (
    agreement_fraction,
    pull_statistics,
    trial_metrics,
    trial_metrics_from_values,
)
from repro.analysis.stats import SummaryStatistics, percentile, success_rate, summarize
from repro.network.trace import ExecutionTrace, RoundRecord


def trace_from_agreed(values, c=3, metadata_per_round=None):
    trace = ExecutionTrace(algorithm_name="test", n=2, c=c, faulty=frozenset({5}))
    for index, value in enumerate(values):
        outputs = {0: value, 1: value} if value is not None else {0: 0, 1: 1}
        metadata = metadata_per_round[index] if metadata_per_round else {}
        trace.append(RoundRecord(round_index=index, outputs=outputs, metadata=metadata))
    return trace


class TestTrialMetrics:
    def test_stabilized_trace(self):
        trace = trace_from_agreed([None, 1, 2, 0, 1])
        metrics = trial_metrics(trace, bound=10)
        assert metrics.stabilized
        assert metrics.stabilization_round == 1
        assert metrics.within_bound is True
        assert metrics.rounds_simulated == 5
        assert metrics.faulty == (5,)

    def test_bound_violation_detected(self):
        trace = trace_from_agreed([None, None, None, 1, 2])
        metrics = trial_metrics(trace, bound=2)
        assert metrics.within_bound is False

    def test_unstabilized_trace(self):
        trace = trace_from_agreed([None, 0, None])
        metrics = trial_metrics(trace, bound=10)
        assert not metrics.stabilized
        assert metrics.stabilization_round is None
        assert metrics.within_bound is None

    def test_agreement_fraction(self):
        trace = trace_from_agreed([None, 1, 2, None])
        assert agreement_fraction(trace) == 0.5

    def test_agreement_fraction_empty(self):
        assert agreement_fraction(trace_from_agreed([])) == 0.0

    def test_trace_wrapper_matches_values(self):
        trace = trace_from_agreed([None, 1, 2, None, 1, 2, 0])
        assert trial_metrics(trace, bound=4) == trial_metrics_from_values(
            trace.agreed_values(), 3, bound=4, faulty=(5,)
        )

    def test_negative_values_count_as_disagreement(self):
        trace_values = [None, 1, 2, None, 1, 2, 0]
        batch_values = [-1 if value is None else value for value in trace_values]
        assert trial_metrics_from_values(
            batch_values, 3, bound=4
        ) == trial_metrics_from_values(trace_values, 3, bound=4)

    def test_within_bound_unknown_without_bound(self):
        metrics = trial_metrics(trace_from_agreed([None, 1, 2, 0]))
        assert metrics.stabilized
        assert metrics.within_bound is None


class TestPullStatistics:
    def test_aggregates_metadata(self):
        metadata = [{"max_pulls": 3, "max_bits": 30}, {"max_pulls": 5, "max_bits": 50}]
        trace = trace_from_agreed([0, 1], metadata_per_round=metadata)
        stats = pull_statistics(trace)
        assert stats["max_pulls"] == 5
        assert stats["mean_pulls"] == 4
        assert stats["max_bits"] == 50

    def test_broadcast_trace_has_zero_pulls(self):
        trace = trace_from_agreed([0, 1])
        assert pull_statistics(trace)["max_pulls"] == 0

    def test_empty_trace(self):
        stats = pull_statistics(trace_from_agreed([]))
        assert stats == {"max_pulls": 0, "mean_pulls": 0.0, "max_bits": 0}


class TestStatistics:
    def test_summarize_basic(self):
        summary = summarize([1, 2, 3, 4])
        assert summary.count == 4
        assert summary.mean == 2.5
        assert summary.median == 2.5
        assert summary.minimum == 1
        assert summary.maximum == 4

    def test_summarize_empty(self):
        summary = summarize([])
        assert summary.count == 0
        assert summary.mean == 0.0

    def test_summary_as_dict(self):
        assert set(summarize([1.0]).as_dict()) == {
            "count",
            "mean",
            "median",
            "min",
            "max",
            "p90",
            "std",
        }

    def test_percentile(self):
        values = [1, 2, 3, 4, 5]
        assert percentile(values, 0) == 1
        assert percentile(values, 100) == 5
        assert percentile(values, 50) == 3
        assert percentile(values, 25) == 2

    def test_percentile_single_value(self):
        assert percentile([7], 90) == 7

    def test_percentile_invalid(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 200)

    def test_std(self):
        summary = summarize([2, 2, 2, 2])
        assert summary.std == 0.0

    def test_success_rate(self):
        assert success_rate([True, False, True, True]) == 0.75
        assert success_rate([]) == 0.0

    def test_summary_statistics_frozen(self):
        summary = SummaryStatistics(1, 1.0, 1.0, 1.0, 1.0, 1.0, 0.0)
        with pytest.raises(Exception):
            summary.mean = 2.0  # type: ignore[misc]
