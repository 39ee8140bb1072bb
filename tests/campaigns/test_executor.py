"""Executor, result-store and runner tests — including the serial-vs-parallel
bit-identity guarantee the campaign engine is built around."""

from __future__ import annotations

import os

import pytest

from repro.campaigns.executor import (
    ParallelExecutor,
    SerialExecutor,
    execute_run,
)
from repro.campaigns.results import CampaignStore, RunResult, summarize_results
from repro.campaigns.runner import run_campaign
from repro.campaigns.spec import AlgorithmSpec, CampaignSpec, RunSpec
from repro.counters.trivial import TrivialCounter


class ParentOnlyCounter(TrivialCounter):
    """Kills any process that is not the one it was constructed in.

    Module level so it pickles into pool workers: the first transition in a
    worker is an ``os._exit`` (the hard death the pool cannot intercept),
    while the serial retry in the constructing process runs normally.
    """

    def __init__(self, c: int = 3) -> None:
        super().__init__(c=c)
        self._home_pid = os.getpid()

    def transition(self, node, messages):
        if os.getpid() != self._home_pid:
            os._exit(1)
        return super().transition(node, messages)


def fixed_campaign(runs_per_setting: int = 25) -> CampaignSpec:
    """A 100-run campaign that is cheap enough for the test suite."""
    return CampaignSpec(
        name="fixed",
        algorithms=(
            AlgorithmSpec.create(
                "naive-majority", {"n": 6, "c": 3, "claimed_resilience": 1}
            ),
            AlgorithmSpec.create(
                "naive-majority", {"n": 4, "c": 4, "claimed_resilience": 1}
            ),
        ),
        adversaries=("crash", "random-state"),
        runs_per_setting=runs_per_setting,
        seed=11,
        max_rounds=40,
        stop_after_agreement=5,
    )


class TestExecuteRun:
    def test_successful_run_produces_metrics(self):
        spec = RunSpec(
            run_id="ok",
            algorithm=AlgorithmSpec.create("trivial", {"c": 4}),
            sim_seed=3,
            max_rounds=12,
            stop_after_agreement=None,
        )
        result = execute_run(spec)
        assert result.error is None
        assert result.rounds_simulated == 12
        assert result.stabilized
        assert result.stabilization_round == 0
        assert result.messages_sent == 12  # 12 rounds x 1 sender x 1 receiver
        assert result.n == 1 and result.c == 4

    def test_failure_is_accounted_not_raised(self):
        spec = RunSpec(
            run_id="broken", algorithm=AlgorithmSpec.create("no-such-algorithm")
        )
        result = execute_run(spec)
        assert result.error is not None
        assert "no-such-algorithm" in result.error
        assert not result.stabilized

    def test_trace_metadata_carries_run_id(self):
        # The config.metadata merge makes campaign traces self-describing.
        from repro.network.simulator import SimulationConfig, run_simulation

        spec = RunSpec(
            run_id="tagged",
            algorithm=AlgorithmSpec.create("trivial", {"c": 2}),
            tags=(("campaign", "meta-test"),),
        )
        config = SimulationConfig(
            max_rounds=2, seed=0, metadata={"run_id": spec.run_id, **dict(spec.tags)}
        )
        trace = run_simulation(spec.resolve_algorithm(), config=config)
        assert trace.metadata["run_id"] == "tagged"
        assert trace.metadata["campaign"] == "meta-test"


class TestPullingRuns:
    def test_execute_run_dispatches_to_pulling_engine(self):
        from repro.campaigns.executor import execute_run
        from repro.campaigns.results import reduce_trace
        from repro.network.pulling import PullSimulationConfig, run_pull_simulation

        spec = RunSpec(
            run_id="pull-0",
            algorithm=AlgorithmSpec.create("sampled-boosted", {"sample_size": 2}),
            adversary="crash",
            faulty=(3,),
            sim_seed=9,
            max_rounds=15,
            stop_after_agreement=None,
            model="pulling",
        )
        result = execute_run(spec)
        assert result.error is None
        assert result.model == "pulling"
        assert result.max_pulls is not None and result.max_pulls > 0
        assert result.max_bits is not None and result.max_bits > result.max_pulls
        assert result.post_agreement_failure_rate is not None

        # The executor result must equal a by-hand run of the pulling engine.
        algorithm = spec.resolve_algorithm()
        trace = run_pull_simulation(
            algorithm,
            adversary=spec.resolve_adversary(),
            config=PullSimulationConfig(
                max_rounds=15,
                seed=9,
                metadata={"run_id": spec.run_id, **dict(spec.tags)},
            ),
        )
        assert reduce_trace(spec, algorithm, trace).to_json() == result.to_json()

    def test_pulling_messages_sent_counts_pulls(self):
        from repro.campaigns.executor import execute_run

        spec = RunSpec(
            run_id="pull-msg",
            algorithm=AlgorithmSpec.create("sampled-boosted", {"sample_size": 2}),
            adversary="crash",
            faulty=(3,),
            sim_seed=1,
            max_rounds=10,
            stop_after_agreement=None,
            model="pulling",
        )
        result = execute_run(spec)
        assert result.error is None
        # 11 correct nodes x 17 pulls each x 10 rounds, far below the
        # broadcast accounting of rounds x n x correct = 10 x 12 x 11.
        assert result.messages_sent == 10 * 11 * 17


class TestSerialVsParallel:
    def test_results_bit_identical_on_100_run_campaign(self):
        runs = fixed_campaign().expand()
        assert len(runs) == 100

        serial = SerialExecutor()
        serial_results = serial.run(runs)
        parallel = ParallelExecutor(processes=2, chunksize=7)
        parallel_results = parallel.run(runs)

        assert serial.stats.completed == parallel.stats.completed == 100
        assert serial.stats.failed == parallel.stats.failed == 0
        serial_lines = [result.to_json() for result in serial_results]
        parallel_lines = [result.to_json() for result in parallel_results]
        assert serial_lines == parallel_lines

    def test_parallel_handles_instance_specs(self):
        from repro.counters.naive import NaiveMajorityCounter
        from repro.network.adversary import CrashAdversary

        algorithm = NaiveMajorityCounter(n=5, c=2, claimed_resilience=1)
        specs = [
            RunSpec(
                run_id=f"inst-{index}",
                algorithm=algorithm,
                adversary=CrashAdversary([4]),
                faulty=(4,),
                sim_seed=index,
                max_rounds=20,
            )
            for index in range(6)
        ]
        serial = SerialExecutor().run(specs)
        parallel = ParallelExecutor(processes=2).run(specs)
        assert [r.to_json() for r in serial] == [r.to_json() for r in parallel]

    def test_stateful_algorithm_instances_do_not_leak_state_across_runs(self):
        # A shared non-deterministic instance must not make results depend on
        # execution order: execute_run deep-copies it and reseeds from the
        # spec, so serial and parallel agree run for run.
        from repro.counters.randomized import RandomizedFollowMajorityCounter
        from repro.network.adversary import CrashAdversary

        algorithm = RandomizedFollowMajorityCounter(n=4, f=1, c=2, seed=0)
        specs = [
            RunSpec(
                run_id=f"rand-{index}",
                algorithm=algorithm,
                adversary=CrashAdversary([3]),
                faulty=(3,),
                sim_seed=1000 + index,
                max_rounds=300,
                stop_after_agreement=4,
            )
            for index in range(8)
        ]
        serial = {r.run_id: r.to_json() for r in SerialExecutor().run(specs)}
        parallel = {
            r.run_id: r.to_json()
            for r in ParallelExecutor(processes=2, chunksize=3).run(specs)
        }
        assert serial == parallel
        # Order independence within one executor too: reversing the spec list
        # yields the same per-run results.
        reversed_serial = {
            r.run_id: r.to_json() for r in SerialExecutor().run(specs[::-1])
        }
        assert reversed_serial == serial

    def test_duplicate_run_ids_not_dropped(self):
        spec = RunSpec(
            run_id="same", algorithm=AlgorithmSpec.create("trivial", {"c": 2})
        )
        specs = [spec, spec, spec]
        serial = SerialExecutor().run(specs)
        parallel = ParallelExecutor(processes=2, chunksize=1).run(specs)
        assert len(serial) == len(parallel) == 3
        assert [r.to_json() for r in serial] == [r.to_json() for r in parallel]

    def test_parallel_failure_accounting(self):
        specs = [
            RunSpec(run_id="good", algorithm=AlgorithmSpec.create("trivial", {"c": 2})),
            RunSpec(run_id="bad", algorithm=AlgorithmSpec.create("nope")),
        ]
        executor = ParallelExecutor(processes=2)
        results = executor.run(specs)
        assert executor.stats.failed == 1
        assert [result.run_id for result in results] == ["good", "bad"]
        assert results[0].error is None and results[1].error is not None


class TestWorkerDeath:
    def specs(self, count: int = 6) -> list[RunSpec]:
        algorithm = ParentOnlyCounter(c=3)
        return [
            RunSpec(
                run_id=f"killer-{index}",
                algorithm=algorithm,
                sim_seed=index,
                max_rounds=10,
            )
            for index in range(count)
        ]

    def test_dead_worker_degrades_to_serial_not_lost_results(self):
        executor = ParallelExecutor(processes=2, chunksize=2)
        results = executor.run(self.specs())
        # Every run still produced a result, via the serial retry.
        assert [result.run_id for result in results] == [
            f"killer-{index}" for index in range(6)
        ]
        assert all(result.error is None for result in results)
        assert all(result.rounds_simulated == 10 for result in results)
        reasons = executor.stats.fallback_reasons
        assert reasons and "BrokenProcessPool" in reasons[0]

    def test_degradation_is_observable(self):
        from repro.obs import Observer
        from repro.obs.events import FallbackTaken

        observer = Observer.recording()
        executor = ParallelExecutor(processes=2, chunksize=2, observer=observer)
        results = executor.run(self.specs())
        assert all(result.error is None for result in results)
        events = observer.buffer.of_kind(FallbackTaken)
        assert len(events) == 1
        assert events[0].label == "parallel-executor"
        assert events[0].runs == len(results)
        assert "BrokenProcessPool" in events[0].reason


class TestCampaignStore:
    def test_round_trip(self, tmp_path):
        store = CampaignStore(tmp_path / "results.jsonl")
        spec = RunSpec(
            run_id="rt", algorithm=AlgorithmSpec.create("trivial", {"c": 3})
        )
        result = execute_run(spec)
        store.append(result)
        loaded = store.load()
        assert loaded == [result]
        assert store.completed_ids() == {"rt"}

    def test_malformed_lines_skipped(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = CampaignStore(path)
        result = execute_run(
            RunSpec(run_id="ok", algorithm=AlgorithmSpec.create("trivial", {"c": 3}))
        )
        store.append(result)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"truncated": ')  # simulated hard kill mid-write
        assert store.load() == [result]

    def test_append_repairs_missing_trailing_newline(self, tmp_path):
        # A hard kill can leave a partial final line; the next append must
        # not concatenate onto it (that would corrupt a healthy record too).
        path = tmp_path / "results.jsonl"
        store = CampaignStore(path)
        with path.open("w", encoding="utf-8") as handle:
            handle.write('{"partial": ')
        result = execute_run(
            RunSpec(run_id="ok", algorithm=AlgorithmSpec.create("trivial", {"c": 3}))
        )
        store.append(result)
        assert store.load() == [result]

    def test_errored_runs_not_completed(self, tmp_path):
        store = CampaignStore(tmp_path / "results.jsonl")
        store.append(execute_run(RunSpec(run_id="x", algorithm=AlgorithmSpec.create("nope"))))
        assert store.completed_ids() == set()

    def test_latest_line_wins(self, tmp_path):
        store = CampaignStore(tmp_path / "results.jsonl")
        failed = execute_run(RunSpec(run_id="x", algorithm=AlgorithmSpec.create("nope")))
        ok = execute_run(
            RunSpec(run_id="x", algorithm=AlgorithmSpec.create("trivial", {"c": 2}))
        )
        store.append(failed)
        store.append(ok)
        assert store.latest_by_id()["x"].error is None
        assert store.completed_ids() == {"x"}

    def test_corrupt_lines_are_counted_not_just_skipped(self, tmp_path):
        path = tmp_path / "results.jsonl"
        store = CampaignStore(path)
        result = execute_run(
            RunSpec(run_id="ok", algorithm=AlgorithmSpec.create("trivial", {"c": 3}))
        )
        store.append(result)
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"truncated": \n')
            handle.write("not json at all\n")
        assert store.corrupt_lines == 0  # nothing read yet
        assert store.load() == [result]
        assert store.corrupt_lines == 2
        # A clean read resets the count: it reflects the most recent pass.
        with path.open("w", encoding="utf-8") as handle:
            handle.write("")
        store.append(result)
        store.load()
        assert store.corrupt_lines == 0

    def test_missing_file_counts_zero_corrupt_lines(self, tmp_path):
        store = CampaignStore(tmp_path / "never-written.jsonl")
        assert store.load() == []
        assert store.corrupt_lines == 0

    def test_resume_over_corruption_warns_and_re_executes(self, tmp_path):
        import warnings

        campaign = fixed_campaign(runs_per_setting=1)
        runs = campaign.expand()
        store = CampaignStore(tmp_path / "campaign.jsonl")
        for spec in runs:
            store.append(execute_run(spec))
        # Corrupt the final record: that run must execute again, loudly.
        lines = store.path.read_text(encoding="utf-8").splitlines()
        store.path.write_text(
            "\n".join(lines[:-1] + [lines[-1][: len(lines[-1]) // 2]]) + "\n",
            encoding="utf-8",
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            report = run_campaign(campaign, store=store)
        assert report.skipped == len(runs) - 1
        assert report.executed == 1
        messages = [str(item.message) for item in caught]
        assert any("unparseable line" in message for message in messages)

    def test_from_dict_type_checks_every_field(self):
        data = execute_run(
            RunSpec(run_id="t", algorithm=AlgorithmSpec.create("trivial", {"c": 3}))
        ).to_dict()
        assert RunResult.from_dict(data).to_dict() == data
        assert RunResult.from_dict({**data, "agreement_fraction": 1}).agreement_fraction == 1.0
        for field, value in (
            ("n", "4"),
            ("stabilized", 1),
            ("messages_sent", True),
            ("faulty", [True]),
            ("within_bound", "yes"),
            ("agreement_fraction", "0.5"),
            ("error", 3),
        ):
            with pytest.raises(TypeError, match=field):
                RunResult.from_dict({**data, field: value})

    def test_mistyped_record_is_corrupt_and_re_executes(self, tmp_path):
        import json
        import warnings

        campaign = fixed_campaign(runs_per_setting=1)
        runs = campaign.expand()
        good, bad = runs[:2]
        store = CampaignStore(tmp_path / "campaign.jsonl")
        store.append(execute_run(good))
        record = execute_run(bad).to_dict()
        record["stabilization_round"] = "x"
        with store.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")

        assert store.load() == [execute_run(good)]
        assert store.corrupt_lines == 1
        assert store.completed_ids() == {good.run_id}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = run_campaign(campaign, store=store)
        assert report.skipped == 1
        assert report.executed == len(runs) - 1
        assert bad.run_id in store.completed_ids()
        summarize_results(store.load())

class TestRunCampaign:
    def test_persists_and_resumes(self, tmp_path):
        campaign = fixed_campaign(runs_per_setting=3)
        store = CampaignStore(tmp_path / "campaign.jsonl")

        first = run_campaign(campaign, store=store)
        assert first.executed == first.total == 12
        assert first.skipped == 0
        assert len(store.load()) == 12

        # Re-running skips everything: the store already holds all runs.
        second = run_campaign(campaign, store=store)
        assert second.executed == 0
        assert second.skipped == 12
        assert [r.to_json() for r in second.results] == [
            r.to_json() for r in first.results
        ]

    def test_resumes_after_interruption(self, tmp_path):
        campaign = fixed_campaign(runs_per_setting=3)
        runs = campaign.expand()
        store = CampaignStore(tmp_path / "campaign.jsonl")

        # Simulate an interrupted campaign: only the first 5 runs persisted.
        for spec in runs[:5]:
            store.append(execute_run(spec))

        report = run_campaign(campaign, store=store)
        assert report.skipped == 5
        assert report.executed == len(runs) - 5

        # The resumed store matches a clean serial pass, run for run.
        clean = {r.run_id: r.to_json() for r in SerialExecutor().run(runs)}
        resumed = {r.run_id: r.to_json() for r in report.results}
        assert resumed == clean

    def test_progress_callback_fires_per_executed_run(self):
        campaign = fixed_campaign(runs_per_setting=1)
        seen: list[tuple[int, int]] = []
        report = run_campaign(
            campaign, progress=lambda done, total, result: seen.append((done, total))
        )
        assert len(seen) == report.executed
        assert seen[-1] == (report.executed, report.executed)


class TestRecoveryMetrics:
    def scheduled_campaign(self, **overrides) -> CampaignSpec:
        settings = dict(
            name="churny",
            algorithms=(
                AlgorithmSpec.create(
                    "naive-majority", {"n": 6, "c": 3, "claimed_resilience": 1}
                ),
            ),
            adversaries=("none",),
            runs_per_setting=4,
            seed=41,
            max_rounds=60,
            stop_after_agreement=4,
            fault_schedule="churn",
            fault_schedule_params=(("start", 4), ("down", 3), ("adversarial", 3)),
        )
        settings.update(overrides)
        return CampaignSpec(**settings)

    def test_results_carry_recovery_metrics(self):
        report = run_campaign(self.scheduled_campaign())
        assert report.executed == 4
        for result in report.results:
            assert result.error is None
            assert result.last_perturbation_round == 10
            if result.recovered:
                assert result.recovery_round is not None
                assert (
                    result.re_stabilization_time
                    == result.recovery_round - result.last_perturbation_round
                )
            else:
                assert result.recovery_round is None
                assert result.re_stabilization_time is None

    def test_unperturbed_results_have_no_recovery_metrics(self):
        report = run_campaign(fixed_campaign(runs_per_setting=1))
        for result in report.results:
            assert result.last_perturbation_round is None
            assert result.recovered is None
            assert result.recovery_round is None

    def test_recovery_metrics_survive_the_store_round_trip(self, tmp_path):
        store = CampaignStore(tmp_path / "churny.jsonl")
        report = run_campaign(self.scheduled_campaign(), store=store)
        loaded = {result.run_id: result for result in store.load()}
        for result in report.results:
            persisted = loaded[result.run_id]
            assert persisted.last_perturbation_round == result.last_perturbation_round
            assert persisted.recovered == result.recovered
            assert persisted.recovery_round == result.recovery_round
            assert persisted.re_stabilization_time == result.re_stabilization_time

    def test_summary_gains_recovery_columns_only_when_perturbed(self):
        scheduled = run_campaign(self.scheduled_campaign())
        table = summarize_results(scheduled.results)
        (row,) = table.rows
        assert row["perturbed"] == 4
        assert 0 <= row["recovered"] <= 4
        if row["recovered"]:
            assert row["mean_recovery"] != "-"
            assert row["max_recovery"] != "-"
        plain = summarize_results(run_campaign(fixed_campaign(1)).results)
        for plain_row in plain.rows:
            assert "perturbed" not in plain_row


class TestSummarize:
    def test_groups_and_statistics(self):
        report = run_campaign(fixed_campaign(runs_per_setting=5))
        table = summarize_results(report.results)
        # 2 algorithms x 2 adversaries, but the trivial counter ignores
        # adversaries only in effect, not in grouping: 4 groups.
        assert len(table.rows) == 4
        for row in table.rows:
            assert row["runs"] == 5
            assert row["failed"] == 0
            assert 0 <= row["stabilized"] <= row["runs"]

    def test_summary_serialises_to_text(self):
        report = run_campaign(fixed_campaign(runs_per_setting=2))
        text = summarize_results(report.results).format_table()
        assert "algorithm" in text and "stabilized" in text
