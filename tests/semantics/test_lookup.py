"""Name lookups through the catalogue: one error style, listing and build."""

from __future__ import annotations

import pytest

from repro.cli import main as repro_main
from repro.core.errors import ParameterError
from repro.network.adversary import CrashAdversary, build_adversary
from repro.semantics import (
    ADVERSARY_SEMANTICS,
    ALGORITHM_SEMANTICS,
    adversary_semantics,
    algorithm_semantics,
    build_algorithm,
    strategy_names,
)


def _rows(capsys, *argv: str) -> dict[str, str]:
    """One ``repro list`` section as a name -> row text mapping."""
    assert repro_main(["list", *argv]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    return dict(row.strip().split(None, 1) for row in rows if row.strip())


class TestListing:
    def test_lists_every_algorithm_with_description(self, capsys):
        rows = _rows(capsys, "algorithms")
        assert set(rows) == set(ALGORITHM_SEMANTICS)
        for name, spec in ALGORITHM_SEMANTICS.items():
            assert spec.description
            assert spec.model in ("broadcast", "pulling")
            assert rows[name].startswith(f"[{spec.model}] {spec.description}")

    def test_lists_every_adversary_with_description(self, capsys):
        assert set(ADVERSARY_SEMANTICS) == set(strategy_names())
        rows = _rows(capsys, "adversaries")
        assert set(rows) == set(ADVERSARY_SEMANTICS)
        for name, spec in ADVERSARY_SEMANTICS.items():
            assert spec.description
            assert rows[name].startswith(spec.description)

    def test_model_filter(self, capsys):
        assert repro_main(["list", "all", "--model", "pulling"]) == 0
        sections = capsys.readouterr().out.split("\n\n")
        algorithms = [row.split()[0] for row in sections[0].splitlines()[1:]]
        assert algorithms == ["pseudo-random-boosted", "sampled-boosted"]
        # Adversaries carry no model and survive any model filter.
        adversaries = [row.split()[0] for row in sections[1].splitlines()[1:]]
        assert adversaries == sorted(ADVERSARY_SEMANTICS)

    def test_build_algorithm_and_adversary(self):
        counter = build_algorithm("trivial", c=5)
        assert counter.c == 5
        adversary = build_adversary("crash", faulty=(1,))
        assert isinstance(adversary, CrashAdversary)
        assert adversary.faulty == frozenset({1})


class TestErrorStyle:
    def test_unknown_algorithm_lists_alternatives(self):
        with pytest.raises(ParameterError, match="unknown algorithm 'nope'"):
            algorithm_semantics("nope")
        with pytest.raises(ParameterError, match="registered algorithms: "):
            build_algorithm("nope")

    def test_unknown_adversary_lists_alternatives(self):
        with pytest.raises(ParameterError, match="unknown adversary 'nope'"):
            adversary_semantics("nope")
        with pytest.raises(ParameterError, match="registered adversaries: "):
            adversary_semantics("nope")

    def test_other_kind_name_is_unknown(self):
        # Each accessor looks up its own kind only, with its own wording.
        with pytest.raises(ParameterError, match="unknown algorithm 'crash'"):
            algorithm_semantics("crash")
        with pytest.raises(ParameterError, match="unknown adversary 'trivial'"):
            adversary_semantics("trivial")

    def test_names_unique_across_kinds(self):
        assert set(ALGORITHM_SEMANTICS).isdisjoint(ADVERSARY_SEMANTICS)
        for name, spec in {**ALGORITHM_SEMANTICS, **ADVERSARY_SEMANTICS}.items():
            assert spec.name == name

    def test_out_of_schema_parameter_carries_the_schema(self):
        with pytest.raises(
            ParameterError,
            match=(
                r"unknown parameter\(s\) 'bogus' for algorithm 'trivial'; "
                r"accepted parameters: c \(default 2\)"
            ),
        ):
            build_algorithm("trivial", bogus=1)
