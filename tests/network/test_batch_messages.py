"""The broadcast round's message views, independent of any kernel.

``received_stack`` must equal the per-field ``received`` matrices stacked on
the last axis and, element by element, a matrix built receiver by receiver:
the sender's delivered state, unless the sender is faulty, in which case
the receiver's forgery for it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.network.batch import BatchMessages, PerturbedBatchMessages

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
