"""Unit tests for the published-bounds models and building algorithms by name."""

from __future__ import annotations

import pytest

from repro.core.errors import ParameterError
from repro.counters.baselines import (
    PRIOR_WORK_MODELS,
    DolevEtAlOneResilientModel,
    DolevHochModel,
    RandomizedFolkloreModel,
)
from repro.counters.trivial import TrivialCounter
from repro.semantics import algorithm_names, build_algorithm


class TestComplexityModels:
    def test_all_models_produce_rows(self):
        for model in PRIOR_WORK_MODELS:
            row = model.row(n=4, f=1)
            assert row["name"] == model.name
            assert row["stabilization_bound"] > 0
            assert row["state_bits"] > 0
            assert row["measured"] is False

    def test_dolev_hoch_is_deterministic_optimal_resilience(self):
        assert DolevHochModel.deterministic
        assert DolevHochModel.max_resilience(10) == 3
        assert DolevHochModel.max_resilience(3) == 0

    def test_randomized_model_expected_time(self):
        row = RandomizedFolkloreModel.row(n=4, f=1)
        assert row["stabilization_bound"] == 2 ** (2 * 3)

    def test_one_resilient_model_matches_table1(self):
        row = DolevEtAlOneResilientModel.row(n=4, f=1)
        assert row["stabilization_bound"] == 7
        assert row["state_bits"] == 2

    def test_row_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            DolevHochModel.row(n=0, f=0)


class TestBuildByName:
    def test_catalogue_names(self):
        names = algorithm_names()
        for expected in ("trivial", "naive-majority", "randomized-follow-majority", "corollary1", "figure2"):
            assert expected in names

    def test_build_trivial(self):
        counter = build_algorithm("trivial", c=4)
        assert isinstance(counter, TrivialCounter)
        assert counter.c == 4

    def test_build_corollary1(self):
        counter = build_algorithm("corollary1", c=2, f=1)
        assert (counter.n, counter.f, counter.c) == (4, 1, 2)

    def test_unknown_name_raises(self):
        with pytest.raises(ParameterError, match="unknown algorithm 'does-not-exist'"):
            build_algorithm("does-not-exist")
