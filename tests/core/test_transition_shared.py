"""``transition_shared`` against per-receiver ``transition`` calls.

A round in which every receiver reads the same message vector may be run as
one ``transition_shared(receivers, messages)`` call.  It must give exactly
``{r: transition(r, messages) for r in receivers}`` — in the same key order,
for any vector (valid, garbage or out of range) and any receiver subset — and
the boosted counter's prepared phase king round must agree with the Table 2
instructions it replaces.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.boosting import BoostedCounter
from repro.core.errors import ParameterError
from repro.core.phase_king import (
    INFINITY,
    PhaseKingRegisters,
    PhaseKingRound,
    coerce_register_value,
    instruction_broadcast,
    instruction_king,
    instruction_vote,
    phase_king_step,
    schedule_length,
)
from repro.counters.randomized import RandomizedFollowMajorityCounter
from repro.semantics import build_algorithm

ALGORITHMS = {
    "trivial": build_algorithm("trivial", c=4),
    "naive-majority": build_algorithm("naive-majority", n=6, c=3, claimed_resilience=1),
    "corollary1": build_algorithm("corollary1", f=1, c=2),
    "figure2": build_algorithm("figure2", levels=1, c=2),
}

#: Messages no algorithm accepts as they are: wrong types, out-of-range
#: integers, and tuples whose fields are each invalid in some way.
GARBAGE = (None, "x", 2.5, True, -7, 10**6, (), (1, 2), (None, 99, 5), (3, INFINITY, 1))


@st.composite
def message_vectors(draw, algorithm):
    """``algorithm.n`` messages, each a random valid state or a garbage value."""
    vector = []
    for _ in range(algorithm.n):
        if draw(st.booleans()):
            seed = draw(st.integers(min_value=0, max_value=2**32))
            vector.append(algorithm.random_state(random.Random(seed)))
        else:
            vector.append(draw(st.sampled_from(GARBAGE)))
    return vector


@st.composite
def receiver_subsets(draw, n):
    """A non-empty subset of ``[n]`` in an arbitrary (usually unsorted) order."""
    order = draw(st.permutations(range(n)))
    return order[: draw(st.integers(min_value=1, max_value=n))]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(ALGORITHMS)), st.data())
def test_shared_round_equals_per_receiver_transitions(name, data):
    algorithm = ALGORITHMS[name]
    messages = data.draw(message_vectors(algorithm))
    receivers = data.draw(receiver_subsets(algorithm.n))
    shared = algorithm.transition_shared(receivers, messages)
    expected = {node: algorithm.transition(node, messages) for node in receivers}
    assert shared == expected
    assert list(shared) == list(receivers)


def randomized_boosted(seed: int) -> BoostedCounter:
    """Theorem 1 over a randomised inner counter ``A(4, 1)``: ``k = 3``, ``F = 3``."""
    inner = RandomizedFollowMajorityCounter(n=4, f=1, c=3 * 5 * 4**3, seed=seed)
    return BoostedCounter(inner=inner, k=3, counter_size=2)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**16), st.data())
def test_randomised_counters_keep_their_draw_order(seed, data):
    for build in (
        lambda: build_algorithm("randomized-follow-majority", n=7, f=2, c=2, seed=seed),
        lambda: randomized_boosted(seed),
    ):
        shared_instance, looped_instance = build(), build()
        messages = data.draw(message_vectors(shared_instance))
        receivers = data.draw(receiver_subsets(shared_instance.n))
        for _ in range(3):  # the draws continue in step over several rounds
            shared = shared_instance.transition_shared(receivers, messages)
            looped = {
                node: looped_instance.transition(node, messages) for node in receivers
            }
            assert shared == looped
            assert list(shared) == list(receivers)


@pytest.mark.parametrize("name", ["corollary1", "figure2"])
def test_out_of_range_receivers_raise_the_node_error(name):
    algorithm = ALGORITHMS[name]
    messages = [algorithm.default_state()] * algorithm.n
    message = rf"^node must be in \[0, {algorithm.n}\), got {algorithm.n}$"
    with pytest.raises(ParameterError, match=message):
        algorithm.transition(algorithm.n, messages)
    with pytest.raises(ParameterError, match=message):
        algorithm.transition_shared([0, algorithm.n], messages)


@pytest.mark.parametrize("name", ["corollary1", "figure2"])
def test_wrong_length_vectors_raise_before_any_receiver_runs(name):
    algorithm = ALGORITHMS[name]
    messages = [algorithm.default_state()] * (algorithm.n - 1)
    with pytest.raises(ParameterError, match=rf"^expected {algorithm.n} messages"):
        algorithm.transition_shared([0, 1], messages)


# --------------------------------------------------------------------------- #
# The prepared phase king round against the Table 2 instructions
# --------------------------------------------------------------------------- #

#: Received ``a``-values: counter values, ∞, and garbage that coerces to ∞.
RECEIVED = st.sampled_from([0, 1, 2, 3, 4, INFINITY, 7, -3, None, "a", True])


@st.composite
def phase_king_cases(draw):
    F = draw(st.integers(min_value=0, max_value=2))
    N = draw(st.integers(min_value=max(3 * F + 1, F + 2), max_value=3 * F + 4))
    C = draw(st.sampled_from([2, 3, 5]))
    received = draw(st.lists(RECEIVED, min_size=N, max_size=N))
    return N, F, C, received


@settings(max_examples=150, deadline=None)
@given(phase_king_cases())
def test_prepared_round_matches_the_table2_instructions(case):
    N, F, C, received = case
    coerced = [coerce_register_value(value, C) for value in received]
    for R in range(schedule_length(F)):
        prepared = PhaseKingRound(received, R, N, F, C)
        phase, step = divmod(R, 3)
        for a in [*range(C), INFINITY]:
            for d in (0, 1):
                registers = PhaseKingRegisters(a, d)
                if step == 0:
                    expected = instruction_broadcast(registers, coerced, N, F, C)
                elif step == 1:
                    expected = instruction_vote(registers, coerced, N, F, C)
                else:
                    expected = instruction_king(registers, coerced, phase, N, F, C)
                assert prepared.apply(a, d) == (expected.a, expected.d)
                assert phase_king_step(registers, received, R, N, F, C) == expected


def test_prepared_round_keeps_the_step_errors():
    with pytest.raises(ParameterError, match=r"^expected 4 received values, got 3$"):
        PhaseKingRound([0, 0, 0], 0, N=4, F=1, C=2)
    with pytest.raises(ParameterError, match=r"^counter size C must be at least 2, got 1$"):
        PhaseKingRound([0] * 4, 0, N=4, F=1, C=1)
    # F = 0 on one node: the second phase's king (node 1) does not exist.
    with pytest.raises(ParameterError, match=r"^king index must be in \[0, 1\), got 1$"):
        PhaseKingRound([0], 5, N=1, F=0, C=2)
    with pytest.raises(ParameterError, match=r"^king index must be in \[0, 1\), got 1$"):
        phase_king_step(PhaseKingRegisters(0, 1), [0], 5, N=1, F=0, C=2)
