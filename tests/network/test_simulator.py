"""Unit tests for the broadcast-model simulator."""

from __future__ import annotations

import json

import pytest

from repro.core.errors import SimulationError
from repro.core.recursion import figure2_counter
from repro.counters.naive import NaiveMajorityCounter
from repro.counters.trivial import TrivialCounter
from repro.network.adversary import (
    CrashAdversary,
    FixedStateAdversary,
    MimicAdversary,
    NoAdversary,
    RandomStateAdversary,
)
from repro.network.simulator import SimulationConfig, run_round, run_simulation
from repro.network.stabilization import stabilization_round


class TestSimulationConfig:
    def test_defaults(self):
        config = SimulationConfig()
        assert config.max_rounds == 1000
        assert config.record_states is False

    def test_rejects_bad_max_rounds(self):
        with pytest.raises(SimulationError):
            SimulationConfig(max_rounds=0)

    def test_rejects_bad_agreement_window(self):
        with pytest.raises(SimulationError):
            SimulationConfig(stop_after_agreement=0)


class TestRunRound:
    def test_trivial_counter_advances(self):
        counter = TrivialCounter(c=5)
        new_states = run_round(counter, {0: 3}, NoAdversary(), 0, rng=None)
        assert new_states == {0: 4}

    def test_faulty_senders_replaced_by_adversary(self):
        counter = NaiveMajorityCounter(n=4, c=4, claimed_resilience=1)

        class RecordingAdversary(CrashAdversary):
            def __init__(self):
                super().__init__([3])
                self.calls = []

            def forge(self, round_index, sender, receiver, states, algorithm, rng):
                self.calls.append((sender, receiver))
                return 3

        adversary = RecordingAdversary()
        import random

        run_round(counter, {0: 0, 1: 0, 2: 0}, adversary, 0, rng=random.Random(0))
        # One forged message per (faulty sender, correct receiver) pair.
        assert sorted(adversary.calls) == [(3, 0), (3, 1), (3, 2)]


class TestRunSimulation:
    def test_records_requested_rounds(self):
        counter = TrivialCounter(c=4)
        trace = run_simulation(counter, config=SimulationConfig(max_rounds=7, seed=0))
        assert trace.num_rounds == 7

    def test_trivial_counter_counts_from_any_start(self):
        counter = TrivialCounter(c=4)
        trace = run_simulation(
            counter,
            config=SimulationConfig(max_rounds=10, seed=3),
            initial_states=[2],
        )
        assert trace.output_series(0) == [(3 + i) % 4 for i in range(10)]

    def test_same_seed_same_trace(self):
        counter = NaiveMajorityCounter(n=4, c=3, claimed_resilience=1)
        adversary = RandomStateAdversary(frozenset({1}))
        config = SimulationConfig(max_rounds=20, seed=11)
        first = run_simulation(counter, adversary=adversary, config=config)
        second = run_simulation(counter, adversary=adversary, config=config)
        assert first.output_rows() == second.output_rows()

    def test_different_seed_changes_initial_states(self):
        counter = NaiveMajorityCounter(n=6, c=10)
        one = run_simulation(counter, config=SimulationConfig(max_rounds=1, seed=1))
        two = run_simulation(counter, config=SimulationConfig(max_rounds=1, seed=2))
        assert one.initial_outputs != two.initial_outputs

    def test_faulty_nodes_absent_from_outputs(self):
        counter = NaiveMajorityCounter(n=4, c=3, claimed_resilience=1)
        trace = run_simulation(
            counter,
            adversary=CrashAdversary(frozenset({2})),
            config=SimulationConfig(max_rounds=5, seed=0),
        )
        assert set(trace.rounds[0].outputs) == {0, 1, 3}

    def test_early_stop_on_agreement(self):
        counter = TrivialCounter(c=4)
        trace = run_simulation(
            counter,
            config=SimulationConfig(max_rounds=500, stop_after_agreement=5, seed=0),
        )
        assert trace.num_rounds <= 10
        assert trace.metadata.get("stopped_early") is True

    def test_record_states(self):
        counter = TrivialCounter(c=4)
        trace = run_simulation(
            counter, config=SimulationConfig(max_rounds=3, seed=0, record_states=True)
        )
        assert trace.rounds[0].states is not None

    def test_states_not_recorded_by_default(self):
        counter = TrivialCounter(c=4)
        trace = run_simulation(counter, config=SimulationConfig(max_rounds=3, seed=0))
        assert trace.rounds[0].states is None

    def test_rejects_adversary_exceeding_resilience(self):
        counter = TrivialCounter(c=4)
        with pytest.raises(SimulationError):
            run_simulation(counter, adversary=CrashAdversary([0]))

    def test_initial_states_mapping(self):
        counter = NaiveMajorityCounter(n=3, c=5)
        trace = run_simulation(
            counter,
            config=SimulationConfig(max_rounds=1, seed=0),
            initial_states={0: 1, 1: 1, 2: 1},
        )
        assert trace.initial_outputs == {0: 1, 1: 1, 2: 1}

    def test_initial_states_mapping_missing_node_rejected(self):
        counter = NaiveMajorityCounter(n=3, c=5)
        with pytest.raises(SimulationError):
            run_simulation(
                counter,
                config=SimulationConfig(max_rounds=1, seed=0),
                initial_states={0: 1},
            )

    def test_initial_states_wrong_length_rejected(self):
        counter = NaiveMajorityCounter(n=3, c=5)
        with pytest.raises(SimulationError):
            run_simulation(
                counter,
                config=SimulationConfig(max_rounds=1, seed=0),
                initial_states=[1, 1],
            )

    def test_initial_states_invalid_state_rejected(self):
        counter = NaiveMajorityCounter(n=3, c=5)
        with pytest.raises(SimulationError):
            run_simulation(
                counter,
                config=SimulationConfig(max_rounds=1, seed=0),
                initial_states=[1, 99, 1],
            )

    def test_naive_counter_stabilizes_without_faults(self):
        counter = NaiveMajorityCounter(n=5, c=3)
        trace = run_simulation(counter, config=SimulationConfig(max_rounds=20, seed=4))
        assert stabilization_round(trace, min_tail=5).stabilized

    def test_config_metadata_merged_into_trace(self):
        counter = TrivialCounter(c=4)
        trace = run_simulation(
            counter,
            config=SimulationConfig(
                max_rounds=2, seed=0, metadata={"campaign": "demo", "run_id": "r7"}
            ),
        )
        assert trace.metadata["campaign"] == "demo"
        assert trace.metadata["run_id"] == "r7"
        # Simulator-owned keys are still present and win on collision.
        assert trace.metadata["seed"] == 0
        assert trace.metadata["max_rounds"] == 2

    def test_config_metadata_cannot_clobber_simulator_keys(self):
        counter = TrivialCounter(c=4)
        trace = run_simulation(
            counter,
            config=SimulationConfig(max_rounds=3, seed=5, metadata={"seed": "bogus"}),
        )
        assert trace.metadata["seed"] == 5

    def test_metadata_mentions_adversary(self):
        counter = NaiveMajorityCounter(n=4, c=3, claimed_resilience=1)
        trace = run_simulation(
            counter,
            adversary=RandomStateAdversary([3]),
            config=SimulationConfig(max_rounds=2, seed=0),
        )
        assert trace.metadata["adversary"]["strategy"] == "RandomStateAdversary"
        assert trace.faulty == frozenset({3})


class _CaptureAlgorithm(NaiveMajorityCounter):
    """Stores the received message vector as the new state (for fast-path tests)."""

    def transition(self, node, messages):
        return tuple(messages)

    def is_valid_state(self, state):
        return True

    def coerce_message(self, message):
        return message

    def output(self, node, state):
        return 0


class TestRunRoundFastPath:
    """The shared-message-vector optimisation must be observationally identical
    to building the vector from scratch for every receiver."""

    def test_per_receiver_forgeries_patch_only_faulty_entries(self):
        import random

        capture = _CaptureAlgorithm(n=4, c=2, claimed_resilience=1)

        class PerReceiverAdversary(CrashAdversary):
            def forge(self, round_index, sender, receiver, states, algorithm, rng):
                return f"forged-for-{receiver}"

        new_states = run_round(
            capture,
            {0: "s0", 2: "s2", 3: "s3"},
            PerReceiverAdversary([1]),
            0,
            rng=random.Random(0),
        )
        assert new_states[0] == ("s0", "forged-for-0", "s2", "s3")
        assert new_states[2] == ("s0", "forged-for-2", "s2", "s3")
        assert new_states[3] == ("s0", "forged-for-3", "s2", "s3")

    def test_fault_free_shared_vector_matches_states(self):
        capture = _CaptureAlgorithm(n=3, c=2)
        new_states = run_round(capture, {0: "a", 1: "b", 2: "c"}, NoAdversary(), 0, None)
        assert new_states == {
            0: ("a", "b", "c"),
            1: ("a", "b", "c"),
            2: ("a", "b", "c"),
        }

    def test_fast_path_preserves_rng_stream(self):
        # The refactored loop must consume adversary randomness in the same
        # order as the original per-receiver reconstruction, so seeded runs
        # stay bit-for-bit reproducible across versions.  The golden sequence
        # below was recorded with the pre-refactor run_round (per-receiver
        # rebuild over all senders): receivers in states order, and for each
        # receiver the faulty senders in ascending order, drawing from one
        # shared RNG.
        import random

        golden = [
            (0, 2, 0, 3), (0, 5, 0, 3), (0, 2, 1, 1), (0, 5, 1, 4),
            (0, 2, 3, 1), (0, 5, 3, 1), (0, 2, 4, 1), (0, 5, 4, 1),
            (0, 2, 6, 0), (0, 5, 6, 2), (1, 2, 0, 5), (1, 5, 0, 3),
            (1, 2, 1, 4), (1, 5, 1, 5), (1, 2, 3, 5), (1, 5, 3, 4),
            (1, 2, 4, 0), (1, 5, 4, 4), (1, 2, 6, 3), (1, 5, 6, 1),
        ]

        class Recording(RandomStateAdversary):
            def __init__(self, faulty):
                super().__init__(faulty)
                self.calls = []

            def forge(self, round_index, sender, receiver, states, algorithm, rng):
                value = super().forge(
                    round_index, sender, receiver, states, algorithm, rng
                )
                self.calls.append((round_index, sender, receiver, value))
                return value

        counter = NaiveMajorityCounter(n=7, c=6, claimed_resilience=2)
        adversary = Recording([2, 5])
        rng = random.Random(99)
        states = {0: 0, 1: 1, 3: 3, 4: 4, 6: 5}
        for round_index in range(2):
            states = run_round(counter, states, adversary, round_index, rng)
        assert adversary.calls == golden


class _FrozenCounter(NaiveMajorityCounter):
    """Outputs a constant value: agreement without counting."""

    def transition(self, node, messages):
        return messages[node]


class TestStopAfterAgreementWraparound:
    def test_streak_counts_across_modulo_wraparound(self):
        # Starting from state c-2 = 1 the outputs run 2, 0, 1, 2 — the streak
        # must keep growing across the c-1 -> 0 step.
        counter = TrivialCounter(c=3)
        trace = run_simulation(
            counter,
            config=SimulationConfig(max_rounds=50, stop_after_agreement=4, seed=0),
            initial_states=[1],
        )
        assert trace.num_rounds == 4
        assert trace.metadata["agreement_streak"] == 4
        assert trace.output_series(0) == [2, 0, 1, 2]

    def test_streak_requires_increments_not_mere_agreement(self):
        # All nodes agree on a frozen value forever; without increments the
        # streak must never exceed 1, so the simulation runs to max_rounds.
        frozen = _FrozenCounter(n=3, c=3)
        trace = run_simulation(
            frozen,
            config=SimulationConfig(max_rounds=12, stop_after_agreement=2, seed=0),
            initial_states=[1, 1, 1],
        )
        assert trace.num_rounds == 12
        assert trace.metadata.get("stopped_early") is False
        assert set(trace.agreed_values()) == {1}

    def test_streak_resets_on_skipped_value(self):
        # A counter that jumps by 2 mod c agrees every round but never
        # produces consecutive increments, so early stopping never triggers.
        class SkippingCounter(NaiveMajorityCounter):
            def transition(self, node, messages):
                return (messages[node] + 2) % self.c

        skipping = SkippingCounter(n=2, c=5)
        trace = run_simulation(
            skipping,
            config=SimulationConfig(max_rounds=15, stop_after_agreement=2, seed=0),
            initial_states=[0, 0],
        )
        assert trace.num_rounds == 15
        assert trace.metadata.get("stopped_early") is False

    def test_wraparound_streak_on_two_counter(self):
        # c = 2 alternates 0, 1, 0, 1 — every step is a wraparound increment.
        counter = TrivialCounter(c=2)
        trace = run_simulation(
            counter,
            config=SimulationConfig(max_rounds=40, stop_after_agreement=6, seed=0),
        )
        assert trace.num_rounds == 6
        assert trace.metadata["agreement_streak"] == 6


def _per_receiver_round(algorithm, states, adversary, round_index, rng):
    """The reference round: every receiver's vector built and run on its own."""
    adversary.on_round_start(round_index, states, algorithm, rng)
    new_states = {}
    for receiver in states:
        messages = [
            None if sender in adversary.faulty else states[sender]
            for sender in range(algorithm.n)
        ]
        for sender in sorted(adversary.faulty):
            forged = adversary.forge(round_index, sender, receiver, states, algorithm, rng)
            messages[sender] = algorithm.coerce_message(forged)
        new_states[receiver] = algorithm.transition(receiver, messages)
    return new_states


class TestRunRoundSharedPath:
    """Rounds in which every receiver reads one vector take ``transition_shared``;
    either way the new states and the adversary's RNG stream are the reference's."""

    FAULTY = (0, 5, 11)

    @pytest.mark.parametrize(
        "make_adversary, shared",
        [
            (CrashAdversary, True),
            (lambda faulty: FixedStateAdversary(faulty, state=(7, 1, 1)), True),
            (MimicAdversary, False),
            (RandomStateAdversary, False),
        ],
        ids=["crash", "fixed-state", "mimic", "random-state"],
    )
    def test_matches_the_per_receiver_reference(self, make_adversary, shared, monkeypatch):
        import random

        algorithm = figure2_counter(levels=1, c=2)
        start_rng = random.Random(3)
        correct = [node for node in range(algorithm.n) if node not in self.FAULTY]
        start_rng.shuffle(correct)  # states need not be in node order (churn rejoins)
        states = {node: algorithm.random_state(start_rng) for node in correct}

        widths = []
        original = algorithm.transition_shared

        def spy(receivers, messages):
            widths.append(len(receivers))
            return original(receivers, messages)

        monkeypatch.setattr(algorithm, "transition_shared", spy)
        adversary = make_adversary(self.FAULTY)
        reference_adversary = make_adversary(self.FAULTY)
        rng, reference_rng = random.Random(11), random.Random(11)
        reference_states = states
        for round_index in range(6):
            states = run_round(algorithm, states, adversary, round_index, rng)
            reference_states = _per_receiver_round(
                algorithm, reference_states, reference_adversary, round_index, reference_rng
            )
            assert states == reference_states
            assert list(states) == list(reference_states)
            assert rng.getstate() == reference_rng.getstate()
        assert (len(correct) in widths) is shared

    def test_scalar_churn_campaign_matches_per_receiver_transitions(self, monkeypatch):
        from repro.campaigns.executor import SerialExecutor
        from repro.campaigns.spec import AlgorithmSpec, CampaignSpec
        from repro.core.boosting import BoostedCounter

        spec = CampaignSpec(
            name="shared-churn",
            algorithms=(AlgorithmSpec.create("figure2", {"levels": 1}),),
            adversaries=("none",),
            runs_per_setting=3,
            seed=5,
            max_rounds=6000,
            stop_after_agreement=16,
            fault_schedule="churn",
        )
        shared = [result.to_json() for result in SerialExecutor().run(spec.expand())]

        one_at_a_time = BoostedCounter.transition_shared

        def per_receiver(self, receivers, messages):
            return {
                node: one_at_a_time(self, (node,), messages)[node] for node in receivers
            }

        monkeypatch.setattr(BoostedCounter, "transition_shared", per_receiver)
        looped = [result.to_json() for result in SerialExecutor().run(spec.expand())]
        assert shared == looped
        assert all(json.loads(line)["recovered"] for line in shared)
