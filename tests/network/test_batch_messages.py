"""The broadcast round's message views, independent of any kernel.

``received_stack`` must equal the per-field ``received`` matrices stacked on
the last axis and, element by element, a matrix built receiver by receiver:
the sender's delivered state, unless the sender is faulty, in which case
the receiver's forgery for it.  A folded view — forgeries equal for every
receiver patched into one shared vector — must read the same matrix, and
only unperturbed rounds with such forgeries may fold.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.network.batch import BatchMessages, PerturbedBatchMessages
from repro.util.counter_rng import CounterRNG, DrawSite

BATCH, N, FIELDS = 3, 7, 4


def reference_matrix(delivered, faulty_idx, forged):
    """The ``(B, receiver, sender, fields)`` matrix built one entry at a time."""
    expected = np.array(delivered, copy=True)
    if forged is None:
        return expected
    for b in range(BATCH):
        for receiver in range(N):
            for slot, sender in enumerate(faulty_idx[b]):
                expected[b, receiver, sender] = forged[b, receiver, slot]
    return expected


def make_view(kind, rng):
    states = rng.integers(0, 50, size=(BATCH, N, FIELDS))
    if kind == "fault-free":
        view = BatchMessages(states, None, None)
        return view, np.broadcast_to(states[:, None], (BATCH, N, N, FIELDS))
    faulty_idx = np.stack([np.sort(rng.choice(N, size=2, replace=False)) for _ in range(BATCH)])
    forged = rng.integers(100, 150, size=(BATCH, N, 2, FIELDS))
    if kind == "forged":
        view = BatchMessages(states, faulty_idx, forged)
        return view, np.broadcast_to(states[:, None], (BATCH, N, N, FIELDS))
    delivered = rng.integers(0, 50, size=(BATCH, N, N, FIELDS))
    return PerturbedBatchMessages(states, faulty_idx, forged, delivered), delivered


@pytest.mark.parametrize("kind", ["fault-free", "forged", "perturbed"])
def test_received_stack_matches_per_field_and_reference(kind):
    view, delivered = make_view(kind, np.random.default_rng(11))
    stack = view.received_stack()
    assert stack.shape == (BATCH, N, N, FIELDS)
    per_field = np.stack([view.received(field) for field in range(FIELDS)], axis=-1)
    assert (stack == per_field).all()
    assert (stack == reference_matrix(delivered, view.faulty_idx, view.forged)).all()


def test_fault_free_stack_is_a_broadcast_view():
    view, _ = make_view("fault-free", np.random.default_rng(12))
    stack = view.received_stack()
    assert np.shares_memory(stack, view.states)
    assert not stack.flags.writeable


@pytest.mark.parametrize("kind", ["forged", "perturbed"])
def test_forged_stack_leaves_inputs_untouched(kind):
    view, delivered = make_view(kind, np.random.default_rng(13))
    states, before = view.states.copy(), np.array(delivered, copy=True)
    stack = view.received_stack()
    assert not np.shares_memory(stack, view.states)
    assert (view.states == states).all()
    assert (delivered == before).all()


# ---------------------------------------------------------------------- #
# The shared-vector fold
# ---------------------------------------------------------------------- #

FOLD_N, FOLD_FAULTY = 4, (1, 3)


def forged_round(strategy, seed=21):
    """One round's ``(states, faulty_idx, forged)`` as the batch loop forges it."""
    from repro.network.batch import build_adversary_kernel, build_batch_kernel
    from repro.semantics import build_algorithm

    kernel = build_batch_kernel(build_algorithm("corollary1", f=1))
    rng = CounterRNG(range(seed, seed + BATCH))
    states = kernel.random_fields(rng, DrawSite.RANDOM_STATE_FORGE, (BATCH, FOLD_N))
    rng.start_round(1)
    faulty_idx = np.tile(np.array(FOLD_FAULTY), (BATCH, 1))
    if strategy == "none":
        return states, None, None
    correct = [node for node in range(FOLD_N) if node not in FOLD_FAULTY]
    correct_sorted = np.tile(np.array(correct), (BATCH, 1))
    adversary = build_adversary_kernel(strategy, kernel)
    adversary.begin_round(0, states, correct_sorted, rng)
    forged = adversary.forge(
        0,
        faulty_idx[:, None, :],
        np.arange(FOLD_N)[None, :, None],
        states,
        correct_sorted,
        rng,
    )
    return states, faulty_idx, forged


@pytest.mark.parametrize("strategy", ["none", "crash", "fixed-state"])
def test_receiver_independent_rounds_fold(strategy):
    states, faulty_idx, forged = forged_round(strategy)
    before = states.copy()
    view = BatchMessages.folded(states, faulty_idx, forged)
    assert view.forged is None
    assert view.shared_vector() is view.states
    reference = BatchMessages(states, faulty_idx, forged).received_stack()
    assert (view.received_stack() == reference).all()
    assert (states == before).all()


@pytest.mark.parametrize(
    "strategy", ["random-state", "mimic", "split-state", "phase-king-skew"]
)
def test_per_receiver_rounds_do_not_fold(strategy):
    states, faulty_idx, forged = forged_round(strategy)
    view = BatchMessages.folded(states, faulty_idx, forged)
    assert view.forged is forged
    assert view.states is states
    assert view.shared_vector() is None


def test_perturbed_view_never_folds():
    states, faulty_idx, forged = forged_round("crash")
    shape = (BATCH, FOLD_N, FOLD_N, states.shape[-1])
    delivered = np.broadcast_to(states[:, None], shape)
    for forgeries in (forged, None):
        view = PerturbedBatchMessages(states, faulty_idx, forgeries, delivered)
        assert view.shared_vector() is None


def test_perturbed_batch_runs_read_per_receiver_views(monkeypatch):
    from repro.counters.kernels import BoostedBatchKernel
    from repro.network.batch import BatchTrial, build_batch_kernel, run_batch_trials
    from repro.semantics import build_algorithm

    seen = []
    step = BoostedBatchKernel.step

    def spy(self, view, round_index, rng):
        seen.append((type(view), view.forged is None, view.shared_vector() is None))
        return step(self, view, round_index, rng)

    monkeypatch.setattr(BoostedBatchKernel, "step", spy)
    algorithm = build_algorithm("corollary1", f=1)
    trials = [BatchTrial(sim_seed=seed, faulty=(1,)) for seed in range(3)]
    run_batch_trials(
        algorithm,
        build_batch_kernel(algorithm),
        trials,
        adversary_strategy="crash",
        max_rounds=6,
        loss=0.3,
    )
    assert seen
    assert all(entry == (PerturbedBatchMessages, False, True) for entry in seen)


def test_fold_leaves_campaign_results_unchanged(monkeypatch):
    from repro.campaigns.batching import BatchExecutor
    from repro.campaigns.spec import AlgorithmSpec, CampaignSpec

    runs = CampaignSpec(
        name="fold",
        algorithms=(AlgorithmSpec.create("figure2", {"levels": 1}),),
        adversaries=("crash",),
        runs_per_setting=12,
        seed=5,
        max_rounds=300,
        stop_after_agreement=8,
    ).expand()

    def lines():
        results = BatchExecutor(engine="batch").run(runs)
        return sorted(result.to_json() for result in results)

    folded = lines()
    def unfolded(cls, states, faulty_idx, forged):
        return cls(states, faulty_idx, forged)

    monkeypatch.setattr(BatchMessages, "folded", classmethod(unfolded))
    assert lines() == folded
