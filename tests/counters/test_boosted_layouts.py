"""The boosted core's two receiver layouts give the same successor states.

``_BoostedCore.transition`` reads ``G`` message vectors, each by ``R``
receivers.  When every receiver reads one vector, the shared layout
``(1, n)`` must equal the per-receiver layout ``(n, 1)`` on the same
vector repeated per receiver, bit for bit, and both must equal the scalar
:meth:`~repro.core.boosting.BoostedCounter.transition_shared`.  The plan
cache must keep the two layouts apart although their index arrays have the
same bytes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.phase_king import INFINITY
from repro.counters.kernels import build_boosted_core
from repro.util.counter_rng import CounterRNG, DrawSite
from repro.semantics import build_algorithm

CONFIGS = [
    ("corollary1", {"f": 1}),
    ("corollary1", {"f": 2}),
    ("figure2", {"levels": 1}),
]


def core_for(name, params):
    algorithm = build_algorithm(name, **params)
    return algorithm, build_boosted_core(algorithm)


def random_states(core, n, seed, batch):
    """Valid states with ∞ registers and mixed ``d`` (``random_fields``)."""
    rng = CounterRNG(range(seed, seed + batch))
    states = core.random_fields(rng, DrawSite.RANDOM_STATE_FORGE, (batch, n))
    # Pin a few registers so every draw has reset nodes and both d values.
    states[:, 0, -2:] = (INFINITY, 1)
    states[:, 1, -1] = 0
    return states


def both_layouts(core, states):
    batch, n, fields = states.shape
    per_receiver = core.transition(
        np.broadcast_to(states[:, None], (batch, n, n, fields)),
        np.arange(n)[:, None],
    )
    shared = core.transition(states[:, None], np.arange(n)[None, :])
    assert per_receiver.shape == (batch, n, 1, fields)
    assert shared.shape == (batch, 1, n, fields)
    return per_receiver[:, :, 0], shared[:, 0]


@pytest.mark.parametrize("name, params", CONFIGS)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1), batch=st.integers(1, 6))
def test_shared_layout_equals_per_receiver_layout(name, params, seed, batch):
    algorithm, core = core_for(name, params)
    states = random_states(core, algorithm.n, seed, batch)
    per_receiver, shared = both_layouts(core, states)
    assert per_receiver.dtype == shared.dtype == np.int64
    assert np.array_equal(per_receiver, shared)


@pytest.mark.parametrize("name, params", CONFIGS)
def test_shared_layout_matches_scalar_transition(name, params):
    algorithm, core = core_for(name, params)
    states = random_states(core, algorithm.n, seed=3, batch=4)
    _, shared = both_layouts(core, states)
    receivers = list(range(algorithm.n))
    for trial in range(states.shape[0]):
        messages = [core.decode(row) for row in states[trial].tolist()]
        expected = algorithm.transition_shared(receivers, messages)
        got = [core.decode(row) for row in shared[trial].tolist()]
        assert got == [expected[node] for node in receivers]


@pytest.mark.parametrize("shared_first", [False, True])
def test_plan_cache_keeps_layouts_apart(shared_first):
    algorithm, reference = core_for("figure2", {"levels": 1})
    n = algorithm.n
    states = random_states(reference, n, seed=9, batch=3)
    expected = both_layouts(reference, states)

    _, core = core_for("figure2", {"levels": 1})
    column, row = np.arange(n)[:, None], np.arange(n)[None, :]
    assert column.tobytes() == row.tobytes()
    if shared_first:
        core.transition(states[:, None], row)
    got = both_layouts(core, states)
    assert all(np.array_equal(a, b) for a, b in zip(got, expected))
    assert len(core._plans) == 2
