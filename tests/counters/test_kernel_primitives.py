"""The boosted kernels' array primitives against their scalar definitions.

``strict_majority`` (sort-median candidate), ``pick`` (flat gather) and
``vectorized_phase_king`` (sort-based vote tally) are checked element by
element against :func:`repro.core.voting.majority`, plain indexing and
:func:`repro.core.phase_king.phase_king_step`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.phase_king import INFINITY, PhaseKingRegisters, phase_king_step
from repro.core.voting import majority
from repro.counters.kernels import pick, strict_majority, vectorized_phase_king

#: Small alphabet so that repeats, ties and majorities are common; includes
#: the ∞ sentinel and other negative values.
VALUES = st.integers(min_value=-3, max_value=4)


@st.composite
def rows(draw, size):
    """One row of ``size`` votes: random, unanimous, all-distinct or a tie."""
    kind = draw(st.sampled_from(["random", "unanimous", "distinct", "tie"]))
    if kind == "unanimous":
        return [draw(VALUES)] * size
    if kind == "distinct":
        start = draw(st.integers(min_value=-3, max_value=3))
        return draw(st.permutations(range(start, start + size)))
    if kind == "tie" and size % 2 == 0:
        pair = draw(st.lists(VALUES, min_size=2, max_size=2, unique=True))
        return draw(st.permutations(pair * (size // 2)))
    return draw(st.lists(VALUES, min_size=size, max_size=size))


@st.composite
def vote_tables(draw):
    size = draw(st.integers(min_value=1, max_value=13))
    count = draw(st.integers(min_value=1, max_value=6))
    return [list(draw(rows(size))) for _ in range(count)]


@settings(max_examples=300, deadline=None)
@given(vote_tables(), st.sampled_from([0, 7, INFINITY]))
@example([[1, 1, 2, 2]], 0)  # exact-half tie: no strict majority
@example([[2, 1, 2, 1, 2, 1]], 7)
@example([[INFINITY, INFINITY, 3]], 0)  # the sentinel can win
@example([[-2, -3, -2, -2, 4]], 0)
@example([[5]], 0)  # a size-1 axis is its own majority
@example([[3, 1, 4, 0, 2, 6, 5]], 7)  # all distinct
@example([[4] * 13], 0)
def test_strict_majority_matches_scalar_majority(table, default):
    result = strict_majority(np.array(table, dtype=np.int64), default)
    assert result.tolist() == [majority(row, default) for row in table]


def test_strict_majority_over_leading_axes():
    rng = np.random.default_rng(3)
    values = rng.integers(-1, 2, size=(5, 4, 3, 6))
    result = strict_majority(values, 9)
    assert result.shape == (5, 4, 3)
    for position in np.ndindex(result.shape):
        assert result[position] == majority(values[position].tolist(), 9)


def test_pick_gathers_one_entry_per_position():
    rng = np.random.default_rng(5)
    table = rng.integers(0, 100, size=(4, 3, 5, 2))
    index = rng.integers(0, 5, size=(4, 3))
    result = pick(table, index)
    assert result.shape == (4, 3, 2)
    for b, r in np.ndindex(index.shape):
        assert (result[b, r] == table[b, r, index[b, r]]).all()
    # A strided view of a larger array gathers the same entries.
    wide = rng.integers(0, 100, size=(4, 3, 5, 7))
    expected = np.take_along_axis(wide[..., 3], index[..., None], axis=2)[..., 0]
    assert (pick(wide[..., 3], index) == expected).all()


@st.composite
def phase_king_cases(draw):
    F = draw(st.integers(min_value=0, max_value=3))
    # At least F + 2 nodes, one per potential king.
    N = draw(st.integers(min_value=max(3 * F + 1, F + 2), max_value=3 * F + 4))
    C = draw(st.integers(min_value=2, max_value=5))
    register = st.integers(min_value=-1, max_value=C - 1)
    received = draw(st.lists(register, min_size=N, max_size=N))
    a, d = draw(register), draw(st.integers(min_value=0, max_value=1))
    round_value = draw(st.integers(min_value=0, max_value=3 * (F + 2) - 1))
    return N, F, C, received, a, d, round_value


@settings(max_examples=300, deadline=None)
@given(st.lists(phase_king_cases(), min_size=1, max_size=4))
def test_vectorized_phase_king_matches_scalar_step(cases):
    for N, F, C, received, a, d, round_value in cases:
        expected = phase_king_step(PhaseKingRegisters(a, d), received, round_value, N, F, C)
        values = np.array([received], dtype=np.int64)
        new_a, new_d = vectorized_phase_king(
            own_a=np.array([a]),
            own_d=np.array([d]),
            values=values,
            low=F,
            high=N - F,
            king_value=values[:, round_value // 3],
            step=np.array([round_value % 3]),
            c=C,
        )
        assert (int(new_a[0]), int(new_d[0])) == (expected.a, expected.d)


@pytest.mark.parametrize(
    "name, params",
    [
        ("randomized-follow-majority", {"n": 7, "f": 2, "c": 3}),
        ("corollary1", {"f": 1}),
        ("figure2", {"levels": 1}),
        ("sampled-boosted", {"sample_size": 2}),
    ],
)
def test_random_fields_sample_the_scalar_random_state_distribution(name, params):
    """``random_fields`` draws valid states, every field over the values the
    scalar ``random_state`` produces (the ∞ register sentinel included)."""
    import random

    from repro.network.batch import build_batch_kernel
    from repro.semantics import build_algorithm
    from repro.util.counter_rng import CounterRNG, DrawSite

    algorithm = build_algorithm(name, **params)
    kernel = build_batch_kernel(algorithm)
    fields = kernel.random_fields(
        CounterRNG(range(40)), DrawSite.RANDOM_STATE_FORGE, (40, 100)
    )
    assert fields.shape == (40, 100, kernel.fields) and fields.dtype == np.int64
    rows = fields.reshape(-1, kernel.fields)
    assert all(algorithm.is_valid_state(kernel.decode(row)) for row in rows[:300].tolist())
    scalar = np.array(
        [kernel.encode(algorithm.random_state(random.Random(seed))) for seed in range(4000)]
    )
    for field in range(kernel.fields):
        expected = set(scalar[:, field].tolist())
        if len(expected) <= 10:
            assert set(rows[:, field].tolist()) == expected, field
