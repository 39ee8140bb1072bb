"""Per-rule fixtures: every rule ID fires on its trigger, not on near-misses."""

from __future__ import annotations

import pytest

from repro.lint import RULES, Report, iter_rules, rule_table
from repro.lint.rules import Rule, register_rule


def rule_ids(report: Report) -> list[str]:
    """The unwaived rule IDs present in a report."""
    return sorted({finding.rule for finding in report.unwaived()})


class TestRegistry:
    def test_every_advertised_rule_is_registered(self):
        expected = {
            "DET001", "DET002", "DET003", "DET004",
            "CAT001", "ERR001", "META001",
            "WVR001", "WVR002", "SYN001",
        }
        assert expected <= set(RULES)

    def test_iter_rules_is_sorted_by_id(self):
        ids = [rule.id for rule in iter_rules()]
        assert ids == sorted(ids)

    def test_rule_table_rows_are_complete(self):
        for row in rule_table():
            assert set(row) == {"id", "title", "severity", "rationale"}
            assert row["id"] and row["title"] and row["rationale"]
            assert row["severity"] in ("error", "warning")

    def test_duplicate_rule_id_is_rejected(self):
        class Clash(Rule):
            id = "DET001"

        with pytest.raises(ValueError, match="duplicate lint rule id"):
            register_rule(Clash)


class TestWallClockDET001:
    def test_time_time_fires(self, lint_source):
        report = lint_source(
            """
            import time

            def stamp():
                return time.time()
            """
        )
        assert rule_ids(report) == ["DET001"]
        (finding,) = report.unwaived()
        assert "wall-clock" in finding.message
        assert finding.line == 5

    def test_datetime_now_and_uuid4_fire(self, lint_source):
        report = lint_source(
            """
            import uuid
            from datetime import datetime

            def f():
                return datetime.now(), uuid.uuid4()
            """
        )
        findings = report.unwaived()
        assert [f.rule for f in findings] == ["DET001", "DET001"]

    def test_os_urandom_via_alias_fires(self, lint_source):
        report = lint_source(
            """
            import os as operating_system

            def f():
                return operating_system.urandom(8)
            """
        )
        assert rule_ids(report) == ["DET001"]

    def test_perf_counter_is_allowed(self, lint_source):
        report = lint_source(
            """
            import time

            def duration(started):
                return time.perf_counter() - started
            """
        )
        assert report.unwaived() == ()

    def test_local_object_named_time_is_not_resolved(self, lint_source):
        # ``clock.time()`` on a parameter must not resolve to ``time.time``.
        report = lint_source(
            """
            def f(clock):
                return clock.time()
            """
        )
        assert report.unwaived() == ()


class TestRngConstructionDET002:
    def test_random_random_constructor_fires(self, lint_source):
        report = lint_source(
            """
            import random

            def f(seed):
                return random.Random(seed)
            """
        )
        assert rule_ids(report) == ["DET002"]
        assert "sanctioned derivation sites" in report.unwaived()[0].message

    def test_numpy_default_rng_fires_without_importing_numpy(self, lint_source):
        # Resolution is purely static — the fixture never imports NumPy.
        report = lint_source(
            """
            import numpy as np

            def f(seed):
                return np.random.default_rng(seed)
            """
        )
        assert rule_ids(report) == ["DET002"]

    def test_module_global_draw_fires(self, lint_source):
        report = lint_source(
            """
            import random

            def f():
                return random.random()
            """
        )
        assert rule_ids(report) == ["DET002"]
        assert "module-global RNG" in report.unwaived()[0].message

    def test_draw_from_passed_generator_is_allowed(self, lint_source):
        report = lint_source(
            """
            def f(rng):
                return rng.random() + rng.randint(0, 3)
            """
        )
        assert report.unwaived() == ()

    def test_repro_util_rng_module_is_sanctioned(self, fake_package):
        from repro.lint import run_lint

        root = fake_package(
            "repro.util.rng",
            """
            import random

            def derive(seed):
                return random.Random(seed)
            """,
        )
        report = run_lint([root], rules=["DET002"])
        assert report.unwaived() == ()


    def test_counter_rng_is_sanctioned_in_the_batch_engine(self, fake_package):
        from repro.lint import run_lint

        root = fake_package("repro.network.batch", COUNTER_RNG_SOURCE)
        assert run_lint([root], rules=["DET002"]).unwaived() == ()

    def test_counter_rng_outside_the_batch_engine_fires(self, fake_package):
        from repro.lint import run_lint

        root = fake_package("repro.counters.kernels", COUNTER_RNG_SOURCE)
        report = run_lint([root], rules=["DET002"])
        assert rule_ids(report) == ["DET002"]
        assert "sanctioned batch site" in report.unwaived()[0].message

    def test_stray_default_rng_in_a_shipped_kernel_is_flagged(self, tmp_path):
        """Seeded violation: the batch engine's own RNG site needs no waiver,
        and a kernel that builds its own NumPy generator is still caught."""
        import shutil
        from pathlib import Path

        from repro.lint import run_lint

        shipped = Path(__file__).resolve().parents[2] / "src" / "repro"
        assert "allow[DET002]" not in (shipped / "network" / "batch.py").read_text()
        assert rule_ids(run_lint([shipped], rules=["DET002"])) == []

        sabotaged = tmp_path / "repro"
        shutil.copytree(shipped, sabotaged)
        kernels = sabotaged / "counters" / "kernels.py"
        source = kernels.read_text(encoding="utf-8")
        needle = "        threshold = algorithm.n - algorithm.f\n"
        assert source.count(needle) == 1  # RandomizedFollowMajorityBatchKernel.step
        kernels.write_text(
            source.replace(needle, needle + "        rng = np.random.default_rng(0)\n"),
            encoding="utf-8",
        )
        report = run_lint([sabotaged], rules=["DET002"])
        assert rule_ids(report) == ["DET002"]
        finding = report.unwaived()[0]
        assert finding.path.endswith("counters/kernels.py")
        assert "numpy.random.default_rng" in finding.message


COUNTER_RNG_SOURCE = """
    from repro.util.counter_rng import CounterRNG

    def chunk(seeds):
        return CounterRNG(seeds)
    """


class TestUnorderedIterationDET003:
    def test_for_loop_over_set_parameter_fires(self, lint_source):
        report = lint_source(
            """
            def f(nodes: set):
                for node in nodes:
                    print(node)
            """
        )
        assert rule_ids(report) == ["DET003"]

    def test_for_loop_over_set_literal_local_fires(self, lint_source):
        report = lint_source(
            """
            def f():
                faulty = {3, 1, 2}
                for node in faulty:
                    print(node)
            """
        )
        assert rule_ids(report) == ["DET003"]

    def test_self_attribute_bound_to_set_fires(self, lint_source):
        report = lint_source(
            """
            class Tracker:
                def __init__(self, nodes):
                    self._faulty = set(nodes)

                def walk(self):
                    for node in self._faulty:
                        print(node)
            """
        )
        assert rule_ids(report) == ["DET003"]

    def test_list_freezing_a_set_fires(self, lint_source):
        report = lint_source(
            """
            def f(nodes: frozenset):
                return list(nodes)
            """
        )
        assert rule_ids(report) == ["DET003"]

    def test_sorted_iteration_is_the_fix(self, lint_source):
        report = lint_source(
            """
            def f(nodes: set):
                for node in sorted(nodes):
                    print(node)
                return sorted(nodes)
            """
        )
        assert report.unwaived() == ()

    def test_order_insensitive_consumers_are_allowed(self, lint_source):
        report = lint_source(
            """
            def f(nodes: set):
                total = sum(n for n in nodes)
                if any(n > 3 for n in nodes):
                    return max(nodes), len(nodes), total
                return min(n + 1 for n in nodes)
            """
        )
        assert report.unwaived() == ()

    def test_dict_iteration_is_exempt(self, lint_source):
        # Python dicts are insertion-ordered; only set/frozenset are hazards.
        report = lint_source(
            """
            def f(states: dict):
                for node in states:
                    print(node)
                return list(states)
            """
        )
        assert report.unwaived() == ()

    def test_rule_is_scoped_to_hot_path_modules(self, fake_package):
        from repro.lint import run_lint

        root = fake_package(
            "coolpkg.reporting",
            """
            def f(nodes: set):
                for node in nodes:
                    print(node)
            """,
        )
        report = run_lint([root], rules=["DET003"])
        assert report.unwaived() == ()


class TestKernelPurityDET004:
    def test_global_statement_fires(self, lint_source):
        report = lint_source(
            """
            COUNTER = 0

            class ProbeKernel:
                def forge(self):
                    global COUNTER
                    COUNTER = COUNTER + 1
            """
        )
        assert "DET004" in rule_ids(report)

    def test_subscript_write_into_module_state_fires(self, lint_source):
        report = lint_source(
            """
            CACHE = {}

            class ProbeAdversary:
                def forge(self, key):
                    CACHE[key] = 1
            """
        )
        assert rule_ids(report) == ["DET004"]

    def test_mutator_call_on_module_state_fires(self, lint_source):
        report = lint_source(
            """
            SEEN = []

            class ProbeKernel:
                def begin_round(self, r):
                    SEEN.append(r)
            """
        )
        assert rule_ids(report) == ["DET004"]

    def test_instance_state_is_allowed(self, lint_source):
        report = lint_source(
            """
            class ProbeKernel:
                def __init__(self):
                    self.cache = {}
                    self.seen = []

                def begin_round(self, r):
                    self.cache[r] = 1
                    self.seen.append(r)
                    local = []
                    local.append(r)
            """
        )
        assert report.unwaived() == ()

    def test_unbound_class_outside_naming_convention_is_skipped(self, lint_source):
        # Outside a package only *Kernel/*Adversary names are checked.
        report = lint_source(
            """
            REGISTRY = {}

            class Registrar:
                def register(self, name):
                    REGISTRY[name] = self
            """
        )
        assert report.unwaived() == ()

    def test_scope_is_derived_from_catalogue_bindings(self, fake_package):
        from repro.lint import run_lint

        root = fake_package(
            "coolpkg.engine",
            """
            STATE = {}

            class Declared:
                def step(self):
                    STATE["hits"] = 1

            class Undeclared:
                def step(self):
                    STATE["hits"] = 1
            """,
        )
        report = run_lint(
            [root],
            rules=["DET004"],
            bindings_override=["coolpkg.engine:Declared"],
        )
        findings = report.unwaived()
        assert [f.rule for f in findings] == ["DET004"]
        assert "Declared" in findings[0].message


class TestBindingResolutionCAT001:
    def test_resolving_binding_is_clean(self, fake_package):
        from repro.lint import run_lint

        root = fake_package(
            "coolpkg.engine",
            """
            class Declared:
                pass
            """,
        )
        report = run_lint(
            [root], rules=["CAT001"], bindings_override=["coolpkg.engine:Declared"]
        )
        assert report.unwaived() == ()

    def test_conditionally_defined_attribute_resolves(self, fake_package):
        from repro.lint import run_lint

        root = fake_package(
            "coolpkg.engine",
            """
            try:
                import numpy
            except ImportError:
                Declared = None
            else:
                class Declared:
                    pass
            """,
        )
        report = run_lint(
            [root], rules=["CAT001"], bindings_override=["coolpkg.engine:Declared"]
        )
        assert report.unwaived() == ()

    def test_missing_attribute_fires(self, fake_package):
        from repro.lint import run_lint

        root = fake_package("coolpkg.engine", "class Declared:\n    pass\n")
        report = run_lint(
            [root], rules=["CAT001"], bindings_override=["coolpkg.engine:Missing"]
        )
        (finding,) = report.unwaived()
        assert finding.rule == "CAT001"
        assert "no top-level 'Missing'" in finding.message

    def test_missing_module_fires(self, fake_package):
        from repro.lint import run_lint

        root = fake_package("coolpkg.engine", "class Declared:\n    pass\n")
        report = run_lint(
            [root], rules=["CAT001"], bindings_override=["coolpkg.gone:Declared"]
        )
        (finding,) = report.unwaived()
        assert "not in the scanned tree" in finding.message

    def test_malformed_binding_fires(self, fake_package):
        from repro.lint import run_lint

        root = fake_package("coolpkg.engine", "class Declared:\n    pass\n")
        report = run_lint(
            [root], rules=["CAT001"], bindings_override=["coolpkg.engine"]
        )
        (finding,) = report.unwaived()
        assert "malformed binding" in finding.message


class TestBareRaiseERR001:
    def test_type_error_raise_fires(self, lint_source):
        report = lint_source(
            """
            def build(name, registry):
                if name not in registry:
                    raise KeyError(name)
                raise TypeError("bad parameters")
            """
        )
        findings = report.unwaived()
        assert [f.rule for f in findings] == ["ERR001", "ERR001"]

    def test_parameter_error_is_the_contract(self, lint_source):
        report = lint_source(
            """
            from repro.core.errors import ParameterError

            def build(name, registry):
                if name not in registry:
                    raise ParameterError(f"unknown component {name!r}")
                raise ValueError("unrelated errors stay allowed")
            """
        )
        assert report.unwaived() == ()

    def test_rule_is_scoped_to_registry_modules(self, fake_package):
        from repro.lint import run_lint

        root = fake_package(
            "coolpkg.helpers",
            """
            def f(mapping, key):
                raise KeyError(key)
            """,
        )
        report = run_lint([root], rules=["ERR001"])
        assert report.unwaived() == ()


class TestDuplicatedMetadataMETA001:
    DESCRIPTION = "sends an independently random valid state to every receiver"

    def test_literal_catalogue_description_fires(self, fake_package):
        from repro.lint import run_lint

        root = fake_package(
            "coolpkg.engine",
            f'''
            class Declared:
                """Adversary that {self.DESCRIPTION}."""
            ''',
        )
        report = run_lint(
            [root],
            rules=["META001"],
            bindings_override=["coolpkg.engine:Declared"],
            descriptions_override=[self.DESCRIPTION],
        )
        (finding,) = report.unwaived()
        assert finding.rule == "META001"
        assert "derive the text from repro.semantics" in finding.message

    def test_reworded_docstring_is_clean(self, fake_package):
        from repro.lint import run_lint

        root = fake_package(
            "coolpkg.engine",
            '''
            class Declared:
                """Draws a fresh uniform state per receiver."""
            ''',
        )
        report = run_lint(
            [root],
            rules=["META001"],
            bindings_override=["coolpkg.engine:Declared"],
            descriptions_override=[self.DESCRIPTION],
        )
        assert report.unwaived() == ()

    def test_short_descriptions_are_not_matched(self, fake_package):
        from repro.lint import run_lint

        root = fake_package(
            "coolpkg.engine",
            '''
            class Declared:
                """echo (a short word is too generic to police)."""
            ''',
        )
        report = run_lint(
            [root],
            rules=["META001"],
            bindings_override=["coolpkg.engine:Declared"],
            descriptions_override=["echo"],
        )
        assert report.unwaived() == ()


class TestSyntaxSYN001:
    def test_unparseable_file_is_a_finding_not_a_crash(self, lint_source):
        report = lint_source("def broken(:\n")
        (finding,) = report.unwaived()
        assert finding.rule == "SYN001"
        assert report.exit_code() == 1
