"""Counter-based randomness for the batch engine.

The batch engine runs many independent trials as one array program.  A
stateful generator shared by the live trials would make every value a trial
draws depend on which other trials share its arrays, on the batch size and
on how many trials have already finished.  :class:`CounterRNG` has no
stream state instead: every value is a pure function of its key

    (trial seed, trial's own round, draw site, element index within the
    trial's slice)

in the manner of the counter-based generators of Salmon et al., *Parallel
random numbers: as easy as 1, 2, 3* (SC 2011).  The mixing function is the
splitmix64 finaliser in ``uint64`` NumPy arithmetic:

* ``key(t) = mix(seed(t) + GAMMA)`` — the full 64-bit trial seed;
* ``offset(r, s) = mix(((r << 16) + s) * GAMMA)`` for round ``r`` and site
  ``s``, looked up in a per-(round, site) table rather than mixed per draw;
* value ``i`` of site ``s`` in round ``r`` is
  ``mix(key(t) + offset(r, s) + i * GAMMA)`` (all modulo ``2**64``).

Each trial carries its own round, so trials admitted mid-run into the rows
of finished ones draw exactly as they would alone.  A trial's trajectory is
therefore the same alone, among 256 live trials or packed with other cells,
and a stored randomised batch row can be replayed by re-running its one
trial.

Draw sites are the named constants of :class:`DrawSite`, never a call
counter: a site that draws only when some live trial needs it (the
adaptive-split fabrication) must not shift the draws of any other site.
Every site draws at most once per round; a second draw would repeat the
first one's values, so it raises instead.
"""

from __future__ import annotations

from enum import IntEnum
from math import prod
from typing import Sequence

import numpy as np

from repro.core.errors import SimulationError

__all__ = ["CounterRNG", "DrawSite"]

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U30, _U27, _U31, _U11 = (np.uint64(shift) for shift in (30, 27, 31, 11))


class DrawSite(IntEnum):
    """Every place the batch engine draws randomness, one key each."""

    #: RandomizedFollowMajorityBatchKernel: per-node redraw, ``(B, n)``.
    RANDOMIZED_REDRAW = 1
    #: SampledBoostedBatchKernel: per-block pull targets, ``(B, n, k, M)``.
    SAMPLED_BLOCK_TARGETS = 2
    #: SampledBoostedBatchKernel: phase king pull targets, ``(B, n, M)``.
    SAMPLED_KING_TARGETS = 3
    #: Message-plane delay per link, ``(B, n, n)``.
    LINK_DELAY = 4
    #: Message-plane loss per link, ``(B, n, n)``.
    LINK_LOSS = 5
    #: random-state forgeries, one state per (receiver, faulty sender).
    RANDOM_STATE_FORGE = 6
    #: split-state: the per-round pair of states, ``(B, 2)``.
    SPLIT_STATE_PAIR = 7
    #: phase-king-skew: the auxiliary bit ``d`` of every forgery.
    SKEW_AUX_BIT = 8
    #: phase-king-skew against flat counters: fully random forgeries.
    SKEW_RANDOM_FORGE = 9
    #: adaptive-split: states fabricated for camps without a representative.
    ADAPTIVE_FABRICATE = 10


def _mix(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finaliser, in place on a ``uint64`` array."""
    z ^= z >> _U30
    z *= np.uint64(_MIX1)
    z ^= z >> _U27
    z *= np.uint64(_MIX2)
    z ^= z >> _U31
    return z


def _offset_table(rounds_needed: int) -> np.ndarray:
    """``offset(r, s)`` for every site and every round below a power of two.

    The table covers at least rounds ``[0, rounds_needed)``.
    """
    size = max(64, 1 << (rounds_needed - 1).bit_length())
    rounds = np.arange(size, dtype=np.uint64)[:, None] << np.uint64(16)
    sites = np.arange(max(DrawSite) + 1, dtype=np.uint64)[None, :]
    return _mix((rounds + sites) * np.uint64(_GAMMA))


def _trial_keys(seeds: Sequence[int]) -> np.ndarray:
    """``key(t)`` for each seed, validated to lie in ``[0, 2**64)``."""
    for seed in seeds:
        if not 0 <= seed <= _MASK:
            raise SimulationError(
                f"trial seed {seed!r} is outside [0, 2**64); the batch "
                "engine keys its randomness on the full 64-bit seed"
            )
    keys = np.array([(seed + _GAMMA) & _MASK for seed in seeds], dtype=np.uint64)
    return _mix(keys)


class CounterRNG:
    """Stateless per-trial randomness for the live trials of a batch.

    ``seeds`` are the trials' 64-bit seeds, one per row of the batch axis.
    The engine calls :meth:`start_round` before each step with every live
    trial's own round, :meth:`admit` when queued trials take over the rows
    of finished ones, and :meth:`compact` whenever finished trials leave the
    live arrays, so the batch axis of every draw is always the live trials.
    ``draws`` counts the draws made so far (audits read it to tell whether a
    kernel drew).
    """

    def __init__(self, seeds: Sequence[int]) -> None:
        self._keys = _trial_keys(seeds)
        self._rounds = np.zeros((), dtype=np.intp)
        self._offsets = np.empty((0, 0), dtype=np.uint64)
        self._drawn: set[int] = set()
        self._steps: dict[int, np.ndarray] = {}
        self.draws = 0

    @property
    def batch(self) -> int:
        """Number of live trials (the batch axis every draw must have)."""
        return self._keys.shape[0]

    def start_round(self, rounds: int | np.ndarray) -> None:
        """Key the following draws on each trial's round.

        ``rounds`` is one round for every trial, or a vector holding each
        live trial's own round.
        """
        rounds = np.asarray(rounds, dtype=np.intp)
        if rounds.ndim and rounds.shape != (self.batch,):
            raise SimulationError(
                f"round vector of shape {rounds.shape} must have one entry per "
                f"live trial ({self.batch})"
            )
        self._rounds = rounds
        self._drawn.clear()

    def compact(self, keep: np.ndarray) -> None:
        """Keep only the trials selected by ``keep`` (mask or indices)."""
        self._keys = self._keys[keep]
        if self._rounds.ndim:
            self._rounds = self._rounds[keep]

    def admit(self, rows: np.ndarray, seeds: Sequence[int]) -> None:
        """Key ``rows`` on the seeds of the trials that now occupy them."""
        self._keys[rows] = _trial_keys(seeds)

    def _bits(self, site: DrawSite, shape: tuple[int, ...]) -> np.ndarray:
        """Uniform ``uint64`` values shaped ``shape`` (batch axis first)."""
        if not shape or shape[0] != self.batch:
            raise SimulationError(
                f"draw shape {shape} must lead with the {self.batch} live trials"
            )
        if site in self._drawn:
            low, high = int(self._rounds.min()), int(self._rounds.max())
            rounds = f"round {low}" if low == high else f"rounds {low}..{high}"
            raise SimulationError(
                f"draw site {DrawSite(site).name} drew twice in {rounds}; "
                "each site draws at most once per round"
            )
        self._drawn.add(site)
        self.draws += 1
        width = prod(shape[1:])
        steps = self._steps.get(width)
        if steps is None:
            steps = np.arange(width, dtype=np.uint64) * np.uint64(_GAMMA)
            self._steps[width] = steps
        try:
            offsets = self._offsets[self._rounds, site]
        except IndexError:
            self._offsets = _offset_table(int(self._rounds.max()) + 1)
            offsets = self._offsets[self._rounds, site]
        keyed = self._keys + offsets
        return _mix(keyed[:, None] + steps).reshape(shape)

    def integers(
        self, site: DrawSite, high: int | np.ndarray, shape: tuple[int, ...]
    ) -> np.ndarray:
        """Integers uniform on ``[0, high)`` as ``int64``, shaped ``shape``.

        ``high`` may be an array broadcasting against the trailing axes (one
        bound per field, say).  The values are the 64-bit draws modulo
        ``high``, so the bias is below ``high / 2**64``.
        """
        bound = np.asarray(high, dtype=np.uint64)
        # Every value is below ``high``, so reading the bits as int64 is exact.
        return (self._bits(site, shape) % bound).view(np.int64)

    def random(self, site: DrawSite, shape: tuple[int, ...]) -> np.ndarray:
        """Floats uniform on ``[0, 1)`` (53-bit resolution), shaped ``shape``."""
        return (self._bits(site, shape) >> _U11) * 2.0**-53
