"""The resilience boosting construction (Theorem 1 of the paper).

Given an inner synchronous ``c``-counter ``A ∈ A(n, f, c)`` and a number of
blocks ``k >= 3``, :class:`BoostedCounter` realises the counter
``B ∈ A(N, F, C)`` of Theorem 1 with ``N = k·n`` and ``F < (f+1)·⌈k/2⌉``:

* the ``N`` nodes are divided into ``k`` blocks of ``n`` nodes; each block
  ``i`` runs its own copy ``A_i`` of the inner counter (Section 3.2),
* the block counters are reinterpreted as pairs ``(r, y)`` and leader
  pointers ``b[i, j]`` that eventually all point at one candidate leader
  block for at least ``τ = 3(F+2)`` consecutive rounds (Lemmas 1 and 2),
* a two-level majority vote extracts a round counter ``R`` that is
  temporarily consistent across all non-faulty nodes (Section 3.3, Lemma 3),
* ``R`` drives the self-stabilising phase king adaptation of Section 3.4
  which establishes — and then forever maintains — agreement on the output
  ``C``-counter (Lemmas 4 and 5).

Every node's state is a :class:`BoostedState` consisting of the inner state
of its block algorithm plus the phase king registers ``(a, d)``, so the
space complexity is exactly ``S(A) + ⌈log2(C+1)⌉ + 1`` bits as claimed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, NamedTuple, Sequence

from repro.core.algorithm import AlgorithmInfo, State, SynchronousCountingAlgorithm
from repro.core.blocks import BlockLayout, CounterInterpretation
from repro.core.errors import ParameterError
from repro.core.parameters import BoostingParameters
from repro.core.phase_king import (
    INFINITY,
    PhaseKingRound,
    coerce_register_value,
)
from repro.core.voting import majority
from repro.util.rng import ensure_rng

__all__ = ["BoostedState", "BoostedCounter", "VoteDiagnostics", "boost"]


class BoostedState(NamedTuple):
    """Per-node state of the boosted counter.

    Attributes
    ----------
    inner:
        The state of the node's block-level copy of the inner algorithm.
    a:
        Phase king output register in ``[C] ∪ {∞}`` (``∞`` encoded as
        :data:`repro.core.phase_king.INFINITY`).
    d:
        Phase king auxiliary bit.
    """

    inner: State
    a: int
    d: int


@dataclass(frozen=True)
class VoteDiagnostics:
    """Intermediate values of the voting scheme, exposed for tracing.

    Attributes
    ----------
    block_pointers:
        ``b[i, j]`` as read by this node, one list per block.
    block_rounds:
        ``r[i, j]`` as read by this node, one list per block.
    block_votes:
        ``b^i = majority_j b[i, j]`` for each block ``i``.
    leader:
        ``B = majority_i b^i``.
    round_value:
        ``R = majority_j r[B, j]``.
    """

    block_pointers: list[list[int]]
    block_rounds: list[list[int]]
    block_votes: list[int]
    leader: int
    round_value: int


class BoostedCounter(SynchronousCountingAlgorithm):
    """Synchronous ``C``-counter obtained by boosting an inner counter (Theorem 1)."""

    def __init__(
        self,
        inner: SynchronousCountingAlgorithm,
        k: int,
        counter_size: int,
        resilience: int | None = None,
        name: str | None = None,
    ) -> None:
        """Create the boosted counter.

        Parameters
        ----------
        inner:
            The inner counter ``A ∈ A(n, f, c)``.  Its counter size ``c`` must
            be a multiple of ``3(F+2)(2m)^k``.
        k:
            Number of blocks (``>= 3``).
        counter_size:
            The output counter size ``C > 1``.
        resilience:
            The boosted resilience ``F``.  Defaults to the largest value
            allowed by Theorem 1 together with the phase king requirement
            ``F < N/3``.
        """
        params = BoostingParameters.for_inner(
            inner_n=inner.n,
            inner_f=inner.f,
            k=k,
            counter_size=counter_size,
            resilience=resilience,
        )
        params.validate_inner_counter(inner.c)
        self._params = params
        self._inner = inner
        self._layout = BlockLayout(k=k, n=inner.n)
        self._interpretation = CounterInterpretation(k=k, F=params.resilience)
        info = AlgorithmInfo(
            name=name or f"Boosted[{inner.info.name}, k={k}]",
            deterministic=inner.deterministic,
            source="Theorem 1",
            notes="resilience boosting construction",
        )
        super().__init__(
            n=params.total_nodes, f=params.resilience, c=counter_size, info=info
        )

    # ------------------------------------------------------------------ #
    # Structure accessors
    # ------------------------------------------------------------------ #

    @property
    def inner(self) -> SynchronousCountingAlgorithm:
        """The inner counter ``A``."""
        return self._inner

    @property
    def parameters(self) -> BoostingParameters:
        """The validated Theorem 1 parameter set."""
        return self._params

    @property
    def layout(self) -> BlockLayout:
        """The block layout of the ``N = k·n`` nodes."""
        return self._layout

    @property
    def interpretation(self) -> CounterInterpretation:
        """The leader-pointer interpretation of the block counters."""
        return self._interpretation

    @property
    def tau(self) -> int:
        """``τ = 3(F+2)``."""
        return self._params.tau

    # ------------------------------------------------------------------ #
    # (X, g, h)
    # ------------------------------------------------------------------ #

    def num_states(self) -> int:
        return self._inner.num_states() * (self.c + 1) * 2

    def state_bits(self) -> int:
        """``S(B) = S(A) + ⌈log2(C+1)⌉ + 1`` (Theorem 1)."""
        return self._params.space_bound(self._inner.state_bits())

    def stabilization_bound(self) -> int | None:
        """``T(B) <= T(A) + 3(F+2)(2m)^k`` (Theorem 1)."""
        return self._params.stabilization_bound(self._inner.stabilization_bound())

    def default_state(self) -> BoostedState:
        return BoostedState(inner=self._inner.default_state(), a=INFINITY, d=0)

    def random_state(self, rng: Any = None) -> BoostedState:
        generator = ensure_rng(rng)
        a_choices = list(range(self.c)) + [INFINITY]
        return BoostedState(
            inner=self._inner.random_state(generator),
            a=generator.choice(a_choices),
            d=generator.randrange(2),
        )

    def states(self) -> Iterator[BoostedState]:
        """Enumerate the full state space (only feasible for tiny inner counters)."""
        a_values = list(range(self.c)) + [INFINITY]
        for inner_state in self._inner.states():
            for a in a_values:
                for d in (0, 1):
                    yield BoostedState(inner=inner_state, a=a, d=d)

    def is_valid_state(self, state: Any) -> bool:
        if not isinstance(state, tuple) or len(state) != 3:
            return False
        inner, a, d = state
        if d not in (0, 1):
            return False
        if not (a == INFINITY or (isinstance(a, int) and 0 <= a < self.c)):
            return False
        return self._inner.is_valid_state(inner)

    def coerce_message(self, message: Any) -> BoostedState:
        """Interpret an arbitrary received object as a :class:`BoostedState`.

        Byzantine senders may transmit anything; each field is coerced
        independently so a partially valid forgery is read field-by-field,
        matching the "arbitrary bit pattern" interpretation of the model.
        """
        if isinstance(message, tuple) and len(message) == 3:
            inner, a, d = message
        else:
            inner, a, d = None, INFINITY, 0
        coerced_inner = self._inner.coerce_message(inner)
        coerced_a = coerce_register_value(a, self.c)
        coerced_d = d if d in (0, 1) else 0
        return BoostedState(inner=coerced_inner, a=coerced_a, d=coerced_d)

    def output(self, node: int, state: State) -> int:
        """``h(v, s)``: the phase king output register (0 while reset)."""
        if not isinstance(state, tuple) or len(state) != 3:
            return 0
        a = state[1]
        if isinstance(a, int) and 0 <= a < self.c:
            return a
        return 0

    def transition(self, node: int, messages: Sequence[State]) -> State:
        """One round of the boosted counter for node ``v = (i, j)``."""
        return self.transition_shared((node,), messages)[node]

    def transition_shared(
        self, receivers: Sequence[int], messages: Sequence[State]
    ) -> dict[int, State]:
        """One round of the boosted counter for every node in ``receivers``.

        Mirrors the three steps listed in Section 3.5:

        1. update the state of the block algorithm ``A_i``,
        2. compute the voted round counter ``R``,
        3. execute instruction set ``I_R`` of the phase king protocol.

        Every receiver reads the same vector, so the votes of step 2 and the
        tallies of step 3 are computed once, and step 1 is one shared inner
        round per block.  Only the phase king update of each receiver's own
        registers is per receiver.  With a randomised inner counter the
        receivers run one by one instead, so the inner draws keep the order
        of ``receivers``.
        """
        if len(receivers) > 1 and not self._inner.deterministic:
            return super().transition_shared(receivers, messages)
        coerced = self._coerce_vector(messages)
        layout = self._layout
        placed = [layout.split(node) for node in receivers]

        # Step 1: update each block-level copy of the inner algorithm using
        # the messages originating from that block.
        indices_by_block: dict[int, list[int]] = {}
        for block, index in placed:
            indices_by_block.setdefault(block, []).append(index)
        new_inner: dict[int, dict[int, State]] = {}
        for block, indices in indices_by_block.items():
            start = block * layout.n
            inner_messages = [state.inner for state in coerced[start : start + layout.n]]
            new_inner[block] = self._inner.transition_shared(indices, inner_messages)

        # Step 2: derive the voted round counter R from the broadcast states.
        round_value = self._compute_votes(coerced).round_value

        # Step 3: run the phase king instruction set selected by R.
        phase_king = PhaseKingRound(
            [state.a for state in coerced], round_value, N=self.n, F=self.f, C=self.c
        )
        new_states: dict[int, State] = {}
        for node, (block, index) in zip(receivers, placed):
            own = coerced[node]
            a, d = phase_king.apply(own.a, own.d)
            new_states[node] = BoostedState(inner=new_inner[block][index], a=a, d=d)
        return new_states

    def _coerce_vector(self, messages: Sequence[State]) -> list[BoostedState]:
        if len(messages) != self.n:
            raise ParameterError(
                f"expected {self.n} messages, got {len(messages)}"
            )
        return [self.coerce_message(message) for message in messages]

    # ------------------------------------------------------------------ #
    # Voting internals (exposed for tracing and experiments)
    # ------------------------------------------------------------------ #

    def _compute_votes(self, coerced: Sequence[BoostedState]) -> VoteDiagnostics:
        layout = self._layout
        interpretation = self._interpretation
        inner = self._inner

        block_pointers: list[list[int]] = []
        block_rounds: list[list[int]] = []
        for block in range(layout.k):
            pointers: list[int] = []
            rounds: list[int] = []
            for member in layout.block_members(block):
                member_index = member - block * layout.n
                value = inner.output(member_index, coerced[member].inner)
                decomposed = interpretation.decompose(value, block)
                pointers.append(decomposed.pointer)
                rounds.append(decomposed.r)
            block_pointers.append(pointers)
            block_rounds.append(rounds)

        block_votes = [majority(pointers, 0) for pointers in block_pointers]
        leader = majority(block_votes, 0)
        round_value = majority(block_rounds[leader], 0)
        return VoteDiagnostics(
            block_pointers=block_pointers,
            block_rounds=block_rounds,
            block_votes=block_votes,
            leader=leader,
            round_value=round_value,
        )

    def vote_diagnostics(self, messages: Sequence[State]) -> VoteDiagnostics:
        """Compute the voting scheme's intermediate values for a message vector.

        Useful for tracing executions (for example the Figure 1 experiment
        reads ``block_votes`` and ``leader`` directly from a running system).
        """
        return self._compute_votes(self._coerce_vector(messages))

    def block_counter_value(self, node: int, state: State) -> tuple[int, int, int]:
        """Return ``(r, y, b)`` as announced by ``node`` in ``state``."""
        block, index = self._layout.split(node)
        coerced = self.coerce_message(state)
        value = self._inner.output(index, coerced.inner)
        decomposed = self._interpretation.decompose(value, block)
        return decomposed.r, decomposed.y, decomposed.pointer


def boost(
    inner: SynchronousCountingAlgorithm,
    k: int,
    counter_size: int,
    resilience: int | None = None,
) -> BoostedCounter:
    """Convenience wrapper around :class:`BoostedCounter` (Theorem 1)."""
    return BoostedCounter(
        inner=inner, k=k, counter_size=counter_size, resilience=resilience
    )
