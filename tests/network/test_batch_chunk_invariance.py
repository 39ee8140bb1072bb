"""Every trial's batch result is independent of the trials it runs with.

Batch draws are keyed on (trial seed, round, draw site, element index), so a
trial's :class:`~repro.network.batch.BatchRunSummary` must be the same for
any ``batch_size``, in any trial order, and when packed with the trials of
another campaign cell — for every randomised kernel (the randomised
counter, the sampled pulling counter, and the boosted counter under the
adversaries that draw against boosted states) under every catalogue
strategy, with and without loss/delay.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.batch import BatchTrial, build_batch_kernel, run_batch_summaries
from repro.semantics import algorithm_semantics, build_algorithm, strategy_names

#: (algorithm, params, faults under an active strategy, max_rounds).
CONFIGS = [
    ("randomized-follow-majority", {"n": 7, "f": 2, "c": 2}, 2, 30),
    ("sampled-boosted", {"sample_size": 2}, 1, 16),
    ("corollary1", {"f": 1, "c": 2}, 1, 30),
]
PERTURBATIONS = [(0.0, 0), (0.3, 2)]

CASES = [
    pytest.param(
        name,
        params,
        faults,
        max_rounds,
        strategy,
        loss,
        delay,
        id=f"{name}-{strategy}-loss{loss}-delay{delay}",
    )
    for name, params, faults, max_rounds in CONFIGS
    for strategy in strategy_names()
    for loss, delay in PERTURBATIONS
    if algorithm_semantics(name).model == "broadcast" or (loss, delay) == (0.0, 0)
]


def _trials(n, faults, seeds, tag):
    trials = []
    for seed in seeds:
        start = seed % (n - faults + 1)
        trials.append(
            BatchTrial(
                sim_seed=seed,
                faulty=tuple(range(start, start + faults)),
                metadata=(("cell", tag),),
            )
        )
    return trials


@pytest.mark.parametrize(
    "name, params, faults, max_rounds, strategy, loss, delay", CASES
)
@settings(max_examples=4, deadline=None)
@given(
    seeds=st.lists(
        st.integers(min_value=0, max_value=2**64 - 1),
        min_size=2,
        max_size=9,
        unique=True,
    ),
    shuffle_seed=st.integers(min_value=0, max_value=2**32),
)
def test_summaries_are_chunk_order_and_packing_invariant(
    name, params, faults, max_rounds, strategy, loss, delay, seeds, shuffle_seed
):
    algorithm = build_algorithm(name, **params)
    kernel = build_batch_kernel(algorithm)
    active = strategy != "none"
    faults = faults if active else 0
    trials = _trials(algorithm.n, faults, seeds, "a")

    def run(batch, batch_size=256):
        return run_batch_summaries(
            algorithm,
            kernel,
            batch,
            adversary_strategy=strategy if active else None,
            max_rounds=max_rounds,
            stop_after_agreement=4,
            batch_size=batch_size,
            loss=loss,
            delay=delay,
        )

    reference = run(trials)
    assert run(trials, batch_size=1) == reference
    assert run(trials, batch_size=7) == reference

    order = list(range(len(trials)))
    random.Random(shuffle_seed).shuffle(order)
    shuffled = run([trials[index] for index in order])
    assert [shuffled[order.index(index)] for index in range(len(trials))] == reference

    # Packed with another cell's trials, interleaved: the original trials'
    # summaries come back unchanged.
    other = _trials(algorithm.n, faults, [seed ^ 0x5DEECE66D for seed in seeds], "b")
    packed = run([trial for pair in zip(other, trials) for trial in pair])
    assert packed[1::2] == reference
