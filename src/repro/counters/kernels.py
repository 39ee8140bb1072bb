"""Vectorised broadcast-model kernels for the registry algorithms.

Each kernel implements :class:`repro.network.batch.BatchKernel` for one
algorithm family, executing a synchronous round for a whole ``(B, n)`` batch
of trials with array operations:

* :class:`TrivialBatchKernel` — the single-node modulo counter.
* :class:`NaiveMajorityBatchKernel` — one-hot tallies over the received
  matrix, strict-majority selection, minimum fallback.
* :class:`RandomizedFollowMajorityBatchKernel` — the ``n - f`` threshold test
  plus vectorised random re-draws (counter-based draws; statistically
  equivalent to the scalar per-node ``random.Random`` stream).
* :class:`BoostedBatchKernel` — the full Theorem 1 construction
  (Corollary 1 / Figure 2 stacks): recursive inner-counter transitions,
  leader-pointer decomposition and two-level majority votes, and the
  vectorised phase king of Table 2.  Deterministic and bit-identical to
  :meth:`repro.core.boosting.BoostedCounter.transition`.

The boosted kernel represents a node state as the concatenation of its inner
counter's fields plus the phase king registers ``(a, d)``, mirroring
:class:`~repro.core.boosting.BoostedState`; recursion over
``BoostedCounter``/``TrivialCounter`` stacks therefore yields a fixed-width
integer encoding for every counter the planner instantiates.  Constructions
whose counter periods would overflow int64 (Corollary 1 beyond ``f = 4``)
report no kernel and fall back to the scalar engine.

A boosted level transitions ``G`` message vectors, each read by ``R``
receivers: the receiver layout ``(G, R)``.  When every receiver reads one
vector — fault-free rounds, and ``crash``/``fixed-state`` rounds whose
forgeries the view folds into the shared states — the kernel runs the
shared layout ``(1, n)``, so the leader vote and the phase king tallies run
once per trial instead of once per receiver; only each receiver's own
``(a, d)`` update stays per receiver.  Otherwise it runs the per-receiver
layout ``(n, 1)`` on the receiver matrix.  Inner levels recurse with one
vector per block and receiver run, so the shared layout stays shared all
the way down.

A boosted round is kept to few NumPy calls, because a group's live set is
often only a few dozen trials wide and per-call overhead then dominates:

* the message matrix arrives in one piece — one shared vector
  (:meth:`~repro.network.batch.BatchMessages.shared_vector`), or the view
  scatters every forged column in a single indexed assignment
  (:meth:`~repro.network.batch.BatchMessages.received_stack`);
* every gather is plain fancy indexing on flat index arrays — inner-vector
  columns and own registers through indices each level builds once per
  receiver layout and caches, the leader's round block and the king's
  column through :func:`pick`;
* majorities are sort-median votes (:func:`strict_majority`: the median of
  the sorted axis is the only possible strict-majority value, counted
  once), and the vote instruction's ``z_j > F`` test reads runs of the
  sorted column instead of an ``n x n`` pairwise tally;
* the phase king selects its instruction with one ``np.choose`` and
  applies the guarded increment once, and each level writes its fields into
  one preallocated output array.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.core.boosting import BoostedCounter, BoostedState
from repro.core.phase_king import INFINITY
from repro.counters.naive import NaiveMajorityCounter
from repro.counters.randomized import RandomizedFollowMajorityCounter
from repro.counters.trivial import TrivialCounter
from repro.network.batch import BatchKernel
from repro.util.counter_rng import CounterRNG, DrawSite

__all__ = [
    "TrivialBatchKernel",
    "NaiveMajorityBatchKernel",
    "RandomizedFollowMajorityBatchKernel",
    "BoostedBatchKernel",
    "build_broadcast_kernel",
]

#: Largest counter period the boosted kernel vectorises; beyond this the
#: int64 modular arithmetic of the leader-pointer decomposition would
#: overflow and the scalar engine (arbitrary-precision ints) must be used.
_INT64_SAFE = 2**62

_BIG = np.iinfo(np.int64).max


def strict_majority(values: np.ndarray, default: int) -> np.ndarray:
    """Vectorised ``majority(values, default)`` over the last axis.

    A value wins when it occurs strictly more than half the time.  Only the
    median of the sorted axis can, so it is the one candidate counted;
    otherwise ``default`` is returned, matching
    :func:`repro.core.voting.majority`.  A size-1 axis is its own majority.
    """
    size = values.shape[-1]
    if size == 1:
        return values[..., 0]
    candidate = np.sort(values, axis=-1)[..., size // 2]
    count = (values == candidate[..., None]).sum(axis=-1)
    return np.where(count > size // 2, candidate, default)


def pick(table: np.ndarray, index: np.ndarray) -> np.ndarray:
    """One entry per position of ``index`` along ``table``'s next axis.

    ``table`` has shape ``index.shape + (width, *rest)``; the result has
    shape ``index.shape + rest`` and holds ``table[p][index[p]]`` for every
    position ``p``.  One flat fancy-index gather (indices must lie in
    ``[0, width)``).
    """
    width = table.shape[index.ndim]
    rest = table.shape[index.ndim + 1 :]
    flat = table.reshape((-1,) + rest)
    rows = np.arange(0, flat.shape[0], width) + index.ravel()
    return flat[rows].reshape(index.shape + rest)


def vectorized_phase_king(
    own_a: np.ndarray,
    own_d: np.ndarray,
    values: np.ndarray,
    low: int,
    high: int,
    king_value: np.ndarray,
    step: np.ndarray,
    c: int,
) -> tuple[np.ndarray, np.ndarray]:
    """The Table 2 instruction sets, vectorised, shared by both boosted kernels.

    All three instruction kinds are computed and selected per element by
    ``step = R mod 3`` (receivers may disagree on ``R`` before
    stabilisation).  The deterministic construction passes the absolute
    thresholds (``high = N - F``, ``low = F``) and reads the king's
    broadcast column; the sampled construction (Lemma 8) passes
    ``high = ⌈2M/3⌉``, ``low = ⌊M/3⌋`` and the directly pulled king value.

    ``values`` holds the received/sampled ``a``-registers (last axis =
    senders/samples, longer than ``low``), ``own_a``/``own_d`` the
    receiver's registers and ``king_value`` the already-gathered king
    register.  The support of the receiver's own ``a`` is its count in
    ``values``.  A value qualifies for the vote instruction's
    ``min{j : z_j > low}`` when it occurs more than ``low`` times, that is
    when it equals the entry ``low`` places further on in the sorted axis.
    """
    own_support = (values == own_a[..., None]).sum(axis=-1)
    supported = own_support >= high
    unset = own_a == INFINITY
    ordered = np.sort(values, axis=-1)
    first = ordered[..., : values.shape[-1] - low]
    qualifies = (first == ordered[..., low:]) & (first != INFINITY)
    minimum = np.where(qualifies, first, _BIG).min(axis=-1)

    # I_{3l}: broadcast — keep a only with enough support.
    a_broadcast = np.where(supported, own_a, INFINITY)

    # I_{3l+1}: vote — d certifies support for a counter value; adopt the
    # smallest qualifying value (reset when none qualifies).
    a_vote = np.where(minimum == _BIG, INFINITY, minimum)
    d_vote = (supported & ~unset).astype(np.int64)

    # I_{3l+2}: king — nodes without certified support adopt the king's
    # value (∞ read as the cap C).  Never ∞, so the guard below leaves the
    # paper's unguarded increment intact.
    adopted = np.where(king_value == INFINITY, c, np.minimum(c, king_value))
    a_king = np.where(unset | (own_d == 0), adopted, own_a)

    # Every instruction ends with the guarded increment a + 1 mod c, ∞ kept.
    chosen = np.choose(step, (a_broadcast, a_vote, a_king))
    new_a = np.where(chosen == INFINITY, INFINITY, (chosen + 1) % c)
    new_d = np.choose(step, (own_d, d_vote, 1))
    return new_a, new_d


class BoostedStateCodec:
    """Field encoding of :class:`BoostedState` over an inner core.

    Shared by the broadcast :class:`BoostedBatchKernel` and the pulling
    :class:`repro.sampling.kernels.SampledBoostedBatchKernel`: the state is
    the inner core's fields followed by the phase king registers ``(a, d)``.

    ``field_highs`` holds, per field, the number of values a uniformly
    random state draws for it; an ``a`` register draws from ``[c] ∪ {∞}``
    as ``c + 1`` values, and ``unset_marks`` holds the drawn value that
    stands for ∞ in each register column (``-1``, never drawn, elsewhere).
    """

    def __init__(self, inner_core, c: int) -> None:
        self.inner_core = inner_core
        self.c = c
        self.fields = inner_core.fields + 2
        self.field_highs = np.append(inner_core.field_highs, [c + 1, 2])
        self.unset_marks = np.append(inner_core.unset_marks, [c, -1])

    def encode(self, state: Any) -> tuple[int, ...]:
        return (*self.inner_core.encode(state.inner), int(state.a), int(state.d))

    def decode(self, row: Sequence[int]) -> BoostedState:
        inner_fields = self.inner_core.fields
        return BoostedState(
            inner=self.inner_core.decode(row[:inner_fields]),
            a=int(row[inner_fields]),
            d=int(row[inner_fields + 1]),
        )

    def outputs(self, states: np.ndarray) -> np.ndarray:
        a = states[..., self.inner_core.fields]
        return np.where((a >= 0) & (a < self.c), a, 0)

    def random_fields(
        self, rng: CounterRNG, site: DrawSite, shape: tuple[int, ...]
    ) -> np.ndarray:
        # Every level's fields in one draw: each field uniform over its own
        # range, and each register's last value mapped to the ∞ sentinel —
        # random_state's distribution at every level of the stack.
        fields = rng.integers(site, self.field_highs, shape + (self.fields,))
        return np.where(fields == self.unset_marks, INFINITY, fields)


# ---------------------------------------------------------------------- #
# Flat integer counters
# ---------------------------------------------------------------------- #


class _IntStateKernel(BatchKernel):
    """Shared encoding for algorithms whose state is one integer in [c]."""

    fields = 1

    def encode(self, state: Any) -> tuple[int, ...]:
        return (int(state),)

    def decode(self, row: Sequence[int]) -> int:
        return int(row[0])

    def outputs(self, states: np.ndarray) -> np.ndarray:
        return states[..., 0]

    def random_fields(self, rng, site, shape):
        return rng.integers(site, self.algorithm.c, shape + (1,))


class TrivialBatchKernel(_IntStateKernel):
    """The single-node modulo-``c`` counter (Section 4.1)."""

    deterministic = True

    def step(self, view, round_index, rng):
        # The node's only message is its own state; no adversary can exist
        # (f = 0), so the shared sender states are the received messages.
        return (view.states + 1) % self.algorithm.c


class NaiveMajorityBatchKernel(_IntStateKernel):
    """Fault-intolerant follow-the-majority (the negative baseline)."""

    deterministic = True

    def step(self, view, round_index, rng):
        algorithm = self.algorithm
        counts = view.field_counts(0, algorithm.c)  # (B, receiver, value)
        best = counts.argmax(axis=-1)
        fallback = view.field_min(0)
        agreed = np.where(2 * counts.max(axis=-1) > algorithm.n, best, fallback)
        return (((agreed + 1) % algorithm.c))[..., None]


class RandomizedFollowMajorityBatchKernel(_IntStateKernel):
    """The folklore randomised counter: follow an ``n - f`` majority or redraw.

    The redraw uses the batch's counter-based draws instead of the
    algorithm's per-instance ``random.Random``, so stabilisation-time
    distributions match the scalar engine statistically but not sample by
    sample.  The kernel never reads the algorithm's ``seed`` offset (the
    catalogue declares it ``batch_ignored``), so cells differing only in it
    share one batch group.
    """

    deterministic = False

    def step(self, view, round_index, rng):
        algorithm = self.algorithm
        threshold = algorithm.n - algorithm.f
        counts = view.field_counts(0, algorithm.c)  # (B, receiver, value)
        supported = counts >= threshold
        any_supported = supported.any(axis=-1)
        # argmax over booleans finds the first (smallest) supported value —
        # at most one value can reach n - f anyway (n > 3f).
        minimum_supported = supported.argmax(axis=-1)
        draws = rng.integers(
            DrawSite.RANDOMIZED_REDRAW, algorithm.c, (view.batch, view.n)
        )
        follow = (minimum_supported + 1) % algorithm.c
        return np.where(any_supported, follow, draws)[..., None]


# ---------------------------------------------------------------------- #
# The Theorem 1 construction
# ---------------------------------------------------------------------- #


class _TrivialCore:
    """Recursion base: a block of one trivial node, one int64 field."""

    fields = 1

    def __init__(self, algorithm: TrivialCounter) -> None:
        self.algorithm = algorithm
        self.field_highs = np.array([algorithm.c])
        self.unset_marks = np.array([-1])

    def encode(self, state: Any) -> tuple[int, ...]:
        return (int(state),)

    def decode(self, row: Sequence[int]) -> int:
        return int(row[0])

    def outputs(self, states: np.ndarray) -> np.ndarray:
        return states[..., 0]

    def transition(self, messages: np.ndarray, receivers: np.ndarray) -> np.ndarray:
        # One node per block: each vector is the single node's own state,
        # read by that node alone.
        return (messages + 1) % self.algorithm.c


class _BoostedCore:
    """One Theorem 1 level: inner blocks, leader votes, phase king.

    ``transition`` consumes ``G`` message vectors of shape
    ``(B, G, n, fields)`` — vector ``g`` holds the coerced states of all
    ``n`` members of the *current* level — and a receiver layout ``(G, R)``:
    the within-level node indices of the ``R`` receivers that read vector
    ``g``.  The per-receiver layout is ``(n, 1)`` (one vector per receiver);
    the shared layout is ``(1, n)`` (every receiver reads one vector).  The
    leader vote and the phase king tallies run once per vector; only each
    receiver's own ``(a, d)`` update is per receiver.  Nested levels reuse
    the interface: every vector's blocks that its receivers sit in become
    inner vectors, mirroring
    :meth:`repro.core.boosting.BoostedCounter.transition_shared`.
    """

    def __init__(self, algorithm: BoostedCounter, inner: "_TrivialCore | _BoostedCore"):
        self.algorithm = algorithm
        self.inner = inner
        self.codec = BoostedStateCodec(inner, algorithm.c)
        self.fields = self.codec.fields
        self.field_highs = self.codec.field_highs
        self.unset_marks = self.codec.unset_marks
        layout = algorithm.layout
        interpretation = algorithm.interpretation
        self.k = layout.k
        self.block_size = layout.n
        self.tau = interpretation.tau
        self.m = interpretation.m
        member_block = np.arange(layout.total_nodes) // layout.n
        self.periods = np.array(
            [interpretation.block_period(int(block)) for block in member_block],
            dtype=np.int64,
        )
        self.pointer_divisor = np.array(
            [interpretation.base ** int(block) for block in member_block],
            dtype=np.int64,
        )
        self._plans: dict[
            tuple[tuple[int, ...], bytes], tuple[np.ndarray, np.ndarray, np.ndarray]
        ] = {}

    # -- state encoding (delegated to the shared codec) ------------------- #

    def encode(self, state: Any) -> tuple[int, ...]:
        return self.codec.encode(state)

    def decode(self, row: Sequence[int]) -> BoostedState:
        return self.codec.decode(row)

    def outputs(self, states: np.ndarray) -> np.ndarray:
        return self.codec.outputs(states)

    def random_fields(self, rng, site, shape):
        return self.codec.random_fields(rng, site, shape)

    # -- the round -------------------------------------------------------- #

    def _plan(self, receivers: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Flat gather indices for one receiver layout, built once and cached.

        Indices into the ``(B, G·n, fields)`` view of the messages: the
        member columns of every inner vector ``(G·R / run, block_size)`` and
        every receiver's own column ``(G, R)``; plus the inner layout
        ``(G·R / run, run)``.  Each run of ``run = min(R, block_size)``
        consecutive receivers of a vector shares a block and so reads one
        inner vector.  The key includes the shape: ``(n, 1)`` and ``(1, n)``
        layouts have the same bytes.
        """
        key = (receivers.shape, receivers.tobytes())
        plan = self._plans.get(key)
        if plan is None:
            vectors, count = receivers.shape
            own = np.arange(vectors)[:, None] * self.algorithm.n + receivers
            runs = own.reshape(-1, min(count, self.block_size))
            block_start = runs // self.block_size * self.block_size
            assert (block_start == block_start[:, :1]).all(), "a run spans two blocks"
            inner_columns = block_start[:, :1] + np.arange(self.block_size)
            plan = (inner_columns, own, runs - block_start)
            self._plans[key] = plan
        return plan

    def transition(self, messages: np.ndarray, receivers: np.ndarray) -> np.ndarray:
        algorithm = self.algorithm
        inner_fields = self.inner.fields
        batch, vectors, members, fields = messages.shape
        count = receivers.shape[1]
        n, f, c = algorithm.n, algorithm.f, algorithm.c
        inner_columns, own, inner_receivers = self._plan(receivers)
        flat = messages.reshape(batch, vectors * members, fields)

        # Step 1: the block-level copies of the inner algorithm, each fed
        # with one vector's block columns and read by its receivers there.
        new_inner = self.inner.transition(
            flat[:, inner_columns, :inner_fields], inner_receivers
        )

        # Step 2: the voted round counter R (Section 3.3), once per vector —
        # decompose every member's announced inner output into (r, y) and
        # the leader pointer, then take the two-level strict majorities.
        announced = self.inner.outputs(messages[..., :inner_fields])
        counter, round_component = np.divmod(announced % self.periods, self.tau)
        pointer = (counter // self.pointer_divisor) % self.m
        blocks = (batch, vectors, self.k, self.block_size)
        leader = strict_majority(strict_majority(pointer.reshape(blocks), 0), 0)
        round_value = strict_majority(pick(round_component.reshape(blocks), leader), 0)

        # Step 3: instruction set I_R of the phase king (Table 2) with the
        # absolute thresholds N - F and F; the king's register is read from
        # its broadcast column.  Tallies run per vector, the register update
        # per receiver.
        registers = flat[:, own, inner_fields:]
        a_received = messages[..., inner_fields]
        # R is a voted round component, so already in [τ]: phase and step.
        king, step = np.divmod(round_value, 3)
        new_a, new_d = vectorized_phase_king(
            own_a=registers[..., 0],
            own_d=registers[..., 1],
            values=a_received[:, :, None, :],
            low=f,
            high=n - f,
            king_value=pick(a_received, king)[..., None],
            step=step[..., None],
            c=c,
        )
        out = np.empty((batch, vectors, count, self.fields), dtype=np.int64)
        out[..., :inner_fields] = new_inner.reshape(batch, vectors, count, inner_fields)
        out[..., inner_fields] = new_a
        out[..., inner_fields + 1] = new_d
        return out


def build_boosted_core(algorithm: Any) -> "_TrivialCore | _BoostedCore | None":
    """Recursive core for a TrivialCounter/BoostedCounter stack, or ``None``.

    ``None`` signals an unsupported inner algorithm or a parameterisation
    whose counter periods exceed the int64-safe range.
    """
    if isinstance(algorithm, TrivialCounter):
        if algorithm.c >= _INT64_SAFE:
            return None
        return _TrivialCore(algorithm)
    if isinstance(algorithm, BoostedCounter):
        inner = build_boosted_core(algorithm.inner)
        if inner is None:
            return None
        if algorithm.interpretation.max_period() >= _INT64_SAFE:
            return None
        return _BoostedCore(algorithm, inner)
    return None


class BoostedBatchKernel(BatchKernel):
    """Batch kernel for the deterministic Theorem 1 counters.

    Covers every planner instantiation over the trivial base (``corollary1``,
    ``figure2`` and hand-built :class:`~repro.core.boosting.BoostedCounter`
    stacks) whose counter periods fit in int64.
    """

    deterministic = True

    def __init__(self, algorithm: BoostedCounter, core: _BoostedCore) -> None:
        super().__init__(algorithm)
        self.core = core
        self.fields = core.fields
        self.shared_layout = np.arange(algorithm.n)[None, :]
        self.receiver_layout = np.arange(algorithm.n)[:, None]

    def encode(self, state: Any) -> tuple[int, ...]:
        return self.core.encode(state)

    def decode(self, row: Sequence[int]) -> BoostedState:
        return self.core.decode(row)

    def outputs(self, states: np.ndarray) -> np.ndarray:
        return self.core.outputs(states)

    def random_fields(self, rng, site, shape):
        return self.core.random_fields(rng, site, shape)

    def step(self, view, round_index, rng):
        shared = view.shared_vector()
        if shared is not None:
            return self.core.transition(shared[:, None], self.shared_layout)[:, 0]
        return self.core.transition(view.received_stack(), self.receiver_layout)[:, :, 0]


def build_broadcast_kernel(algorithm: Any) -> BatchKernel | None:
    """The vectorised kernel for a broadcast-model algorithm, or ``None``."""
    if isinstance(algorithm, TrivialCounter):
        return TrivialBatchKernel(algorithm)
    if isinstance(algorithm, NaiveMajorityCounter):
        return NaiveMajorityBatchKernel(algorithm)
    if isinstance(algorithm, RandomizedFollowMajorityCounter):
        return RandomizedFollowMajorityBatchKernel(algorithm)
    if isinstance(algorithm, BoostedCounter):
        core = build_boosted_core(algorithm)
        if isinstance(core, _BoostedCore):
            return BoostedBatchKernel(algorithm, core)
    return None
