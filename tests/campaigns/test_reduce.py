"""The one run reducer behind both campaign engines."""

from __future__ import annotations

from types import SimpleNamespace

from repro.analysis.metrics import post_agreement_failure_rate_from_values
from repro.campaigns.results import reduce_run, reduce_trace
from repro.campaigns.spec import AlgorithmSpec, RunSpec
from repro.network.trace import ExecutionTrace, RoundRecord

# Counts 0, 1, 2, 0, ... (c = 3) from round 2 on.
AGREED = [None, None, 0, 1, 2, 0, 1]


def _spec(**overrides) -> RunSpec:
    settings = dict(
        run_id="r-0",
        algorithm=AlgorithmSpec.create("naive-majority", {"n": 4, "c": 3}),
        adversary="crash",
        faulty=(3,),
        sim_seed=5,
        max_rounds=len(AGREED),
        stop_after_agreement=None,
    )
    settings.update(overrides)
    return RunSpec(**settings)


def _algorithm(bound: int | None = 3) -> SimpleNamespace:
    return SimpleNamespace(n=4, f=1, c=3, stabilization_bound=lambda: bound)


def _reduce(agreed=AGREED, algorithm=None, **facts):
    settings = dict(
        faulty=(3,), stopped_early=False, model="broadcast", messages_sent=84
    )
    settings.update(facts)
    return reduce_run(_spec(), algorithm or _algorithm(), agreed, **settings)


class TestReduceRun:
    def test_values_derive_every_metric(self):
        result = _reduce()
        assert result.run_id == "r-0"
        assert (result.n, result.f, result.c) == (4, 1, 3)
        assert result.faulty == (3,)
        assert result.rounds_simulated == 7
        assert result.stabilized is True
        assert result.stabilization_round == 2
        assert result.within_bound is True
        assert result.agreement_fraction == 5 / 7
        assert result.messages_sent == 84
        assert result.error is None

    def test_within_bound_follows_the_algorithm_bound(self):
        assert _reduce(algorithm=_algorithm(bound=1)).within_bound is False
        assert _reduce(algorithm=_algorithm(bound=None)).within_bound is None
        never = _reduce(agreed=[None, 0, None, 1, None])
        assert never.stabilized is False
        assert never.within_bound is None

    def test_batch_and_trace_disagreement_reduce_identically(self):
        batch = [-1 if value is None else value for value in AGREED]
        assert _reduce(agreed=batch).to_json() == _reduce().to_json()

    def test_recovery_only_for_perturbed_runs(self):
        plain = _reduce()
        assert plain.last_perturbation_round is None
        assert plain.recovered is None
        assert plain.recovery_round is None
        assert plain.re_stabilization_time is None
        perturbed = _reduce(agreed=[0, 1, None, 0, 1, 2, 0], last_perturbation_round=2)
        assert perturbed.last_perturbation_round == 2
        assert perturbed.recovered is True
        assert perturbed.recovery_round == 3
        assert perturbed.re_stabilization_time == 1

    def test_failure_rate_only_for_pulling_runs(self):
        agreed = [None, 0, 1, None, 0, 1]
        assert _reduce(agreed=agreed).post_agreement_failure_rate is None
        pulling = _reduce(agreed=agreed, model="pulling", max_pulls=3)
        assert pulling.model == "pulling"
        assert pulling.max_pulls == 3
        assert pulling.post_agreement_failure_rate == (
            post_agreement_failure_rate_from_values(agreed)
        )

    def test_trace_adapter_feeds_the_agreed_values(self):
        algorithm = _algorithm()
        trace = ExecutionTrace(
            algorithm_name="stub", n=4, c=3, faulty=frozenset({3})
        )
        for index, value in enumerate(AGREED):
            outputs = {0: 0, 1: 1, 2: 2} if value is None else dict.fromkeys(range(3), value)
            trace.append(RoundRecord(round_index=index, outputs=outputs))
        by_trace = reduce_trace(_spec(), algorithm, trace)
        # Broadcast accounting: rounds x n x correct.
        assert by_trace.to_json() == _reduce(messages_sent=7 * 4 * 3).to_json()
