"""The declarative semantics layer is complete, sound, and single-source.

Four families of checks:

* **completeness** — every component ``python -m repro list`` shows traces
  back to a spec in the catalogue (and vice versa), and every catalogue
  algorithm builds by name, so discovery surfaces cannot drift from the
  semantics layer;
* **self-check** — :func:`repro.semantics.verify` passes on the real
  catalogue and *fails* on tampered copies (a mis-declared determinism
  class, state space or parameter schema is caught, not trusted);
* **derivation** — the parity-fuzz sweep space, the strategy vocabulary and
  the kernel dispatch tables are generated from the catalogue, and
  the old hand-maintained copies are verifiably gone from the derived
  modules' source;
* **error style** — unknown parameters raise
  :class:`~repro.core.errors.ParameterError` carrying the spec's schema
  instead of a bare ``TypeError``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cli import main as repro_main
from repro.core.errors import ParameterError, SimulationError
from repro.network.adversary import build_adversary
from repro.semantics import (
    ADVERSARY_SEMANTICS,
    ALGORITHM_SEMANTICS,
    BIT_IDENTICAL,
    FLAT_ONLY,
    STATISTICAL,
    DeterminismClass,
    Parameter,
    active_strategy_names,
    adversary_coverage_notes,
    adversary_semantics,
    algorithm_names,
    algorithm_semantics,
    build_algorithm,
    format_schema,
    resolve_binding,
    strategy_names,
    validate_parameters,
    verify,
)

numpy = pytest.importorskip("numpy")


# ---------------------------------------------------------------------- #
# Completeness: every registered component has a spec, and vice versa
# ---------------------------------------------------------------------- #


def _listing(capsys, kind: str) -> dict[str, str]:
    """``repro list <kind>`` as a name -> row text mapping."""
    assert repro_main(["list", kind]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    return dict(row.strip().split(None, 1) for row in rows if row.strip())


class TestCompleteness:
    def test_every_listed_component_has_a_spec(self, capsys) -> None:
        for name in _listing(capsys, "algorithms"):
            assert name in ALGORITHM_SEMANTICS, f"algorithm {name!r} has no spec"
        for name in _listing(capsys, "adversaries"):
            assert name in ADVERSARY_SEMANTICS, f"adversary {name!r} has no spec"

    def test_every_spec_reaches_the_listing(self, capsys) -> None:
        assert sorted(ALGORITHM_SEMANTICS) == list(_listing(capsys, "algorithms"))
        assert sorted(ADVERSARY_SEMANTICS) == list(_listing(capsys, "adversaries"))

    def test_descriptions_and_notes_come_from_the_spec(self, capsys) -> None:
        algorithms = _listing(capsys, "algorithms")
        for name in algorithm_names():
            spec = algorithm_semantics(name)
            assert algorithms[name] == (
                f"[{spec.model}] {spec.description} [batch: {spec.coverage_note()}]"
            )
        adversaries = _listing(capsys, "adversaries")
        for name in strategy_names():
            spec = adversary_semantics(name)
            assert adversaries[name] == (
                f"{spec.description} [batch: {spec.coverage_note()}]"
            )

    def test_every_algorithm_builds_by_name_as_declared(self) -> None:
        from repro.network.pulling import PullingAlgorithm

        for name in algorithm_names():
            spec = algorithm_semantics(name)
            algorithm = build_algorithm(name)
            assert isinstance(algorithm, PullingAlgorithm) == (spec.model == "pulling")
            assert algorithm.deterministic == spec.scalar_deterministic

    def test_batch_kernel_dispatch_covers_every_active_strategy(self) -> None:
        from repro.network.batch import ADVERSARY_BATCH_KERNELS

        assert tuple(sorted(ADVERSARY_BATCH_KERNELS)) == active_strategy_names()
        for name, kernel_cls in ADVERSARY_BATCH_KERNELS.items():
            assert kernel_cls is adversary_semantics(name).kernel_class()

    def test_coverage_notes_cover_the_whole_vocabulary(self) -> None:
        notes = adversary_coverage_notes()
        assert tuple(notes) == strategy_names()
        assert all(notes.values())


# ---------------------------------------------------------------------- #
# Self-check: verify() passes for real, fails for tampered catalogues
# ---------------------------------------------------------------------- #


class TestVerify:
    def test_real_catalogue_is_sound(self) -> None:
        assert verify() == []

    def test_misdeclared_batch_determinism_is_caught(self) -> None:
        # crash's kernel is pure; declaring it statistical must be reported.
        tampered = dict(ADVERSARY_SEMANTICS)
        tampered["crash"] = dataclasses.replace(
            tampered["crash"], determinism=STATISTICAL
        )
        problems = verify(adversaries=tampered)
        assert any("crash" in p and "statistical" in p for p in problems)

    def test_misdeclared_scalar_determinism_is_caught(self) -> None:
        # random-state draws RNG every forge; declaring it deterministic
        # must be reported.
        tampered = dict(ADVERSARY_SEMANTICS)
        tampered["random-state"] = dataclasses.replace(
            tampered["random-state"], scalar_deterministic=True
        )
        problems = verify(adversaries=tampered)
        assert any(
            "random-state" in p and "scalar-deterministic" in p for p in problems
        )

    def test_misdeclared_state_space_is_caught(self) -> None:
        tampered = dict(ALGORITHM_SEMANTICS)
        tampered["naive-majority"] = dataclasses.replace(
            tampered["naive-majority"], flat_state=False
        )
        problems = verify(algorithms=tampered)
        assert any("naive-majority" in p and "boosted" in p for p in problems)

    def test_only_the_randomised_counters_seed_is_batch_ignored(self) -> None:
        declared = {
            name: sorted(spec.batch_ignored())
            for name, spec in ALGORITHM_SEMANTICS.items()
            if spec.batch_ignored()
        }
        assert declared == {"randomized-follow-majority": ["seed"]}

    @pytest.mark.parametrize(
        "name, parameter, symptom",
        [
            ("randomized-follow-majority", "c", "(n, f, c, stabilization_bound())"),
            ("corollary1", "c", "(n, f, c, stabilization_bound())"),
            ("sampled-boosted", "sample_size", "the batch summaries"),
        ],
    )
    def test_misdeclared_batch_ignored_parameter_is_caught(
        self, name: str, parameter: str, symptom: str
    ) -> None:
        tampered = dict(ALGORITHM_SEMANTICS)
        tampered[name] = dataclasses.replace(
            tampered[name],
            parameters=tuple(
                dataclasses.replace(p, batch_ignored=p.name == parameter)
                for p in tampered[name].parameters
            ),
        )
        problems = verify(algorithms=tampered)
        assert any(
            name in p and repr(parameter) in p and symptom in p for p in problems
        ), problems

    def test_missing_fuzz_profile_is_caught(self) -> None:
        tampered = dict(ALGORITHM_SEMANTICS)
        tampered["trivial"] = dataclasses.replace(tampered["trivial"], fuzz=())
        problems = verify(algorithms=tampered)
        assert any("trivial" in p and "fuzz" in p for p in problems)


# ---------------------------------------------------------------------- #
# Derivation: sweep space and dispatch generated from the catalogue
# ---------------------------------------------------------------------- #


class TestDerivedSweep:
    def test_fuzz_algorithms_equal_the_declared_profiles(self) -> None:
        from repro.network.parity import FUZZ_ALGORITHMS

        expected = tuple(
            (name, dict(profile.params), profile.max_faults, profile.max_rounds)
            for name in algorithm_names()
            for profile in algorithm_semantics(name).fuzz
        )
        assert FUZZ_ALGORITHMS == expected
        # Every registry algorithm is fuzzable — no second list to forget.
        assert {entry[0] for entry in FUZZ_ALGORITHMS} == set(algorithm_names())

    def test_all_strategies_equal_the_vocabulary(self) -> None:
        from repro.network.parity import ALL_STRATEGIES

        assert ALL_STRATEGIES == strategy_names()
        assert ALL_STRATEGIES == ("none", *sorted(active_strategy_names()))

    def test_distribution_strategies_follow_the_determinism_classes(self) -> None:
        from repro.network.parity import DISTRIBUTION_STRATEGIES

        assert DISTRIBUTION_STRATEGIES == tuple(
            name
            for name in strategy_names()
            if name != "none"
            and not adversary_semantics(name).determinism.bit_identical
        )

    def test_small_sweep_covers_the_whole_registry(self) -> None:
        from repro.network.parity import ALL_STRATEGIES, sample_configs

        configs = sample_configs(len(ALL_STRATEGIES), seed=0)
        assert {c.strategy for c in configs} == set(ALL_STRATEGIES)
        for config in configs:
            assert config.algorithm in set(algorithm_names())

    def test_sampled_adversary_params_come_from_declared_choices(self) -> None:
        from repro.network.parity import sample_configs

        declared = {
            name: {
                param: set(values)
                for param, values in adversary_semantics(name).fuzz_param_choices
            }
            for name in active_strategy_names()
        }
        for config in sample_configs(96, seed=3):
            for param, value in config.adversary_params:
                assert value in declared[config.strategy][param]

    def test_schedule_sweep_derives_from_the_catalogue(self) -> None:
        from repro.network.parity import ALL_SCHEDULES, sample_schedule_configs
        from repro.semantics import fault_schedule_names, fault_schedule_semantics

        assert ALL_SCHEDULES == fault_schedule_names()
        declared = {
            name: {
                param: set(values)
                for param, values in fault_schedule_semantics(
                    name
                ).fuzz_param_choices
            }
            for name in fault_schedule_names()
        }
        for config in sample_schedule_configs(24, seed=3):
            for param, value in config.params:
                assert value in declared[config.schedule][param]


class TestFaultScheduleSemantics:
    def test_accessors_and_unknown_name(self) -> None:
        from repro.semantics import (
            fault_schedule_descriptions,
            fault_schedule_names,
            fault_schedule_semantics,
        )

        names = fault_schedule_names()
        assert set(names) == {"churn", "rolling", "late-adversary"}
        assert set(fault_schedule_descriptions()) == set(names)
        for name in names:
            spec = fault_schedule_semantics(name)
            assert spec.scalar_deterministic
            assert not spec.batch_covered
            assert spec.build().name == name
        with pytest.raises(ParameterError, match="no semantics declared"):
            fault_schedule_semantics("meteor-strike")

    def test_build_validates_parameters(self) -> None:
        from repro.semantics import fault_schedule_semantics

        churn = fault_schedule_semantics("churn")
        schedule = churn.build(start=2, down=3)
        assert schedule.windows[0].start == 2
        assert schedule.windows[0].duration == 3
        with pytest.raises(ParameterError):
            churn.build(onset=2)


class TestNoDuplicatedMetadata:
    """Derived modules carry no literal copies of catalogue metadata.

    The PR 7 hand-written source greps are subsumed by the ``META001`` lint
    rule, which matches *every* declared description against every string
    constant in the catalogue-bound and derived modules (and whose scope
    grows automatically with the catalogue).  This test pins the rule to the
    real tree; the rule's own unit tests live in ``tests/lint``.
    """

    def test_meta001_finds_no_duplication_in_the_shipped_tree(self) -> None:
        from repro.lint import run_lint

        report = run_lint(rules=["META001"])
        assert [f.format() for f in report.unwaived()] == []


# ---------------------------------------------------------------------- #
# Error style: schema-carrying ParameterError everywhere
# ---------------------------------------------------------------------- #


class TestParameterErrors:
    def test_build_adversary_unknown_param_carries_the_schema(self) -> None:
        with pytest.raises(ParameterError) as excinfo:
            build_adversary("fixed-state", {0}, bogus=1)
        message = str(excinfo.value)
        assert "bogus" in message
        assert "accepted parameters" in message
        assert "state (default 0)" in message

    def test_build_adversary_parameterless_strategy_says_so(self) -> None:
        with pytest.raises(ParameterError, match=r"no parameters"):
            build_adversary("crash", {0}, bogus=1)

    def test_build_adversary_none_rejects_params(self) -> None:
        with pytest.raises(ParameterError):
            build_adversary("none", (), bogus=1)

    def test_build_adversary_unknown_strategy_is_still_simulation_error(
        self,
    ) -> None:
        with pytest.raises(SimulationError, match="unknown adversary strategy"):
            build_adversary("nope", {0})

    def test_build_algorithm_unknown_param_carries_the_schema(self) -> None:
        with pytest.raises(ParameterError) as excinfo:
            build_algorithm("naive-majority", bogus=1)
        message = str(excinfo.value)
        assert "bogus" in message
        assert "accepted parameters" in message
        assert "claimed_resilience" in message


# ---------------------------------------------------------------------- #
# Spec primitives
# ---------------------------------------------------------------------- #


class TestSpecPrimitives:
    def test_format_schema(self) -> None:
        assert format_schema(()) == "(no parameters)"
        schema = format_schema((Parameter("state", 0), Parameter("offset", 1)))
        assert schema == "state (default 0), offset (default 1)"

    def test_validate_parameters_accepts_declared_names(self) -> None:
        params = (Parameter("state", 0),)
        validate_parameters("adversary", "fixed-state", params, {"state": 2})
        with pytest.raises(ParameterError, match="unknown parameter"):
            validate_parameters("adversary", "fixed-state", params, {"stat": 2})

    def test_determinism_class_notes_match_the_legacy_strings(self) -> None:
        assert BIT_IDENTICAL.note() == "bit-identical"
        assert FLAT_ONLY.note() == (
            "bit-identical for flat counters, statistically equivalent "
            "for boosted states"
        )
        assert STATISTICAL.note() == "statistically equivalent (counter-based RNG)"

    def test_determinism_class_refines_per_kernel(self) -> None:
        from repro.network.batch import build_batch_kernel

        flat = build_batch_kernel(build_algorithm("naive-majority"))
        boosted = build_batch_kernel(build_algorithm("corollary1"))
        assert FLAT_ONLY.for_kernel(flat) is True
        assert FLAT_ONLY.for_kernel(boosted) is False
        assert BIT_IDENTICAL.for_kernel(boosted) is True
        assert STATISTICAL.for_kernel(flat) is False
        assert DeterminismClass(flat=True, boosted=True).bit_identical

    def test_resolve_binding(self) -> None:
        from repro.network.adversary import CrashAdversary

        assert resolve_binding("repro.network.adversary:CrashAdversary") is (
            CrashAdversary
        )
        with pytest.raises(AttributeError):
            resolve_binding("repro.network.adversary:Missing")
        with pytest.raises(ParameterError, match="malformed binding"):
            resolve_binding("no-colon")


# ---------------------------------------------------------------------- #
# Discovery surface
# ---------------------------------------------------------------------- #


class TestVerboseListing:
    def test_verbose_listing_renders_every_spec(self, capsys) -> None:
        from repro.cli import main

        assert main(["list", "--verbose"]) == 0
        out = capsys.readouterr().out
        for name in (*algorithm_names(), *strategy_names()):
            assert name in out
        assert "semantics:" in out
        assert "accepted" not in out  # schemas render as "params:", not errors
        for name in strategy_names():
            assert adversary_semantics(name).coverage_note() in out
