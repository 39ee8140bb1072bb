"""The batch engine's counter-based generator.

Every value must be a pure function of (trial seed, round, draw site,
element index): the same for a trial whatever other trials share the batch
axis, after compaction, and distinct for seeds that differ anywhere in their
64 bits.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import SimulationError
from repro.util.counter_rng import CounterRNG, DrawSite

SITE = DrawSite.RANDOMIZED_REDRAW
seeds_strategy = st.lists(
    st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=8
)


def draw(seeds, site=SITE, round_index=0, shape=(5, 3), high=1000):
    rng = CounterRNG(seeds)
    rng.start_round(round_index)
    return rng.integers(site, high, (len(seeds), *shape))


@settings(max_examples=50, deadline=None)
@given(seeds=seeds_strategy, data=st.data())
def test_a_trials_values_do_not_depend_on_the_other_trials(seeds, data):
    together = draw(seeds)
    permutation = data.draw(st.permutations(range(len(seeds))))
    shuffled = draw([seeds[index] for index in permutation])
    for position, index in enumerate(permutation):
        assert np.array_equal(shuffled[position], together[index])
        assert np.array_equal(draw([seeds[index]])[0], together[index])


def test_compaction_keeps_each_remaining_trials_values():
    seeds = [3, 1 << 40, 7, 99]
    full = CounterRNG(seeds)
    full.start_round(4)
    full.compact(np.array([True, False, True, False]))
    compacted = full.random(SITE, (2, 6))
    alone = CounterRNG([seeds[2]])
    alone.start_round(4)
    assert np.array_equal(compacted[1], alone.random(SITE, (1, 6))[0])


def test_a_mixed_round_vector_draws_each_trial_at_its_own_round():
    seeds = [3, 1 << 40, 7, 99, 2**64 - 1]
    rounds = np.array([0, 4, 4, 131, 1000])
    rng = CounterRNG(seeds)
    rng.start_round(rounds)
    mixed = rng.integers(SITE, 1000, (5, 4, 3))
    for position, (seed, round_index) in enumerate(zip(seeds, rounds)):
        alone = draw([seed], round_index=int(round_index), shape=(4, 3))
        assert np.array_equal(mixed[position], alone[0])


def test_a_uniform_round_vector_reproduces_the_scalar_round():
    seeds = [5, 6, 1 << 63]
    for round_index in (0, 9, 700):
        rng = CounterRNG(seeds)
        rng.start_round(np.full(len(seeds), round_index))
        vector = rng.integers(SITE, 1000, (3, 5, 3))
        assert np.array_equal(vector, draw(seeds, round_index=round_index))


def test_admitted_rows_draw_as_their_new_trials_alone():
    rng = CounterRNG([1, 2, 3])
    rng.admit(np.array([0, 2]), [10, 30])
    rng.start_round(np.array([0, 5, 2]))
    values = rng.random(SITE, (3, 4))
    assert np.array_equal(values[0], draw_random([10], 0)[0])
    assert np.array_equal(values[1], draw_random([2], 5)[0])
    assert np.array_equal(values[2], draw_random([30], 2)[0])


def test_round_vectors_must_cover_the_live_trials():
    rng = CounterRNG([1, 2, 3])
    with pytest.raises(SimulationError, match="one entry per live trial"):
        rng.start_round(np.array([0, 1]))


def draw_random(seeds, round_index):
    rng = CounterRNG(seeds)
    rng.start_round(round_index)
    return rng.random(SITE, (len(seeds), 4))


def test_seeds_differing_only_above_bit_32_draw_differently():
    low = 12345
    values = draw([low, low + (1 << 32), low + (1 << 63)])
    assert not np.array_equal(values[0], values[1])
    assert not np.array_equal(values[0], values[2])
    assert not np.array_equal(values[1], values[2])


def test_rounds_and_sites_key_distinct_values():
    seeds = [5, 6]
    base = draw(seeds)
    assert not np.array_equal(base, draw(seeds, round_index=1))
    assert not np.array_equal(base, draw(seeds, site=DrawSite.LINK_DELAY))
    assert np.array_equal(base, draw(seeds))


def test_a_site_draws_at_most_once_per_round():
    rng = CounterRNG([1, 2])
    rng.integers(SITE, 2, (2, 3))
    rng.integers(DrawSite.LINK_DELAY, 2, (2, 3))
    with pytest.raises(SimulationError, match="drew twice in round 0"):
        rng.integers(SITE, 2, (2, 3))
    rng.start_round(1)
    rng.integers(SITE, 2, (2, 3))
    assert rng.draws == 3


def test_draws_must_lead_with_the_live_trials():
    rng = CounterRNG([1, 2, 3])
    with pytest.raises(SimulationError, match="3 live trials"):
        rng.integers(SITE, 2, (2, 4))


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seeds_outside_64_bits_are_rejected(seed):
    with pytest.raises(SimulationError, match="outside"):
        CounterRNG([seed])


def test_integers_honour_per_field_bounds_and_are_near_uniform():
    rng = CounterRNG(range(64))
    bounds = np.array([2, 3, 7])
    values = rng.integers(SITE, bounds, (64, 500, 3))
    assert values.dtype == np.int64
    assert (values >= 0).all() and (values < bounds).all()
    for field, bound in enumerate(bounds):
        counts = np.bincount(values[..., field].ravel(), minlength=bound)
        expected = values[..., field].size / bound
        # Chi-square with bound - 1 degrees of freedom, far below the
        # 0.1% critical value (16.3 for 3 degrees of freedom and fewer).
        assert ((counts - expected) ** 2 / expected).sum() < 16.3


def test_random_is_on_the_unit_interval_and_near_uniform():
    values = CounterRNG(range(32)).random(SITE, (32, 1000))
    assert values.dtype == np.float64
    assert (values >= 0.0).all() and (values < 1.0).all()
    assert abs(values.mean() - 0.5) < 0.01
    # Neighbouring elements and neighbouring trials are uncorrelated.
    assert abs(np.corrcoef(values[:, :-1].ravel(), values[:, 1:].ravel())[0, 1]) < 0.02
    assert abs(np.corrcoef(values[:-1].ravel(), values[1:].ravel())[0, 1]) < 0.02
