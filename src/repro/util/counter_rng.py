"""Counter-based randomness for the batch engine.

The batch engine runs many independent trials as one array program.  A
stateful generator shared by a chunk of trials would make every value a
trial draws depend on which other trials share its chunk, on the chunk size
and on how many trials have already finished.  :class:`CounterRNG` has no
stream state instead: every value is a pure function of its key

    (trial seed, round, draw site, element index within the trial's slice)

in the manner of the counter-based generators of Salmon et al., *Parallel
random numbers: as easy as 1, 2, 3* (SC 2011).  The mixing function is the
splitmix64 finaliser in ``uint64`` NumPy arithmetic:

* ``key(t) = mix(seed(t) + GAMMA)`` — the full 64-bit trial seed;
* ``offset(r, s) = mix(((r << 16) + s) * GAMMA)`` for round ``r`` and site
  ``s``;
* value ``i`` of site ``s`` in round ``r`` is
  ``mix(key(t) + offset(r, s) + i * GAMMA)`` (all modulo ``2**64``).

A trial's trajectory is therefore the same alone, in a chunk of 256 or
packed with other cells, and a stored randomised batch row can be replayed
by re-running its one trial.

Draw sites are the named constants of :class:`DrawSite`, never a call
counter: a site that draws only when some trial of the chunk needs it (the
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


def _mix_int(z: int) -> int:
    """The splitmix64 finaliser on one Python integer."""
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _mix(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finaliser, in place on a ``uint64`` array."""
    z ^= z >> _U30
    z *= np.uint64(_MIX1)
    z ^= z >> _U27
    z *= np.uint64(_MIX2)
    z ^= z >> _U31
    return z


class CounterRNG:
    """Stateless per-trial randomness for a chunk of batch trials.

    ``seeds`` are the trials' 64-bit seeds, one per row of the batch axis.
    The engine calls :meth:`start_round` before each round and
    :meth:`compact` whenever finished trials leave the live arrays, so the
    batch axis of every draw is always the live trials.  ``draws`` counts
    the draws made so far (audits read it to tell whether a kernel drew).
    """

    def __init__(self, seeds: Sequence[int]) -> None:
        for seed in seeds:
            if not 0 <= seed <= _MASK:
                raise SimulationError(
                    f"trial seed {seed!r} is outside [0, 2**64); the batch "
                    "engine keys its randomness on the full 64-bit seed"
                )
        keys = np.array([(seed + _GAMMA) & _MASK for seed in seeds], dtype=np.uint64)
        self._keys = _mix(keys)
        self._round = 0
        self._drawn: set[int] = set()
        self._steps: dict[int, np.ndarray] = {}
        self.draws = 0

    @property
    def batch(self) -> int:
        """Number of live trials (the batch axis every draw must have)."""
        return self._keys.shape[0]

    def start_round(self, round_index: int) -> None:
        """Key the following draws on ``round_index``."""
        self._round = round_index
        self._drawn.clear()

    def compact(self, keep: np.ndarray) -> None:
        """Keep only the trials selected by ``keep`` (mask or indices)."""
        self._keys = self._keys[keep]

    def _bits(self, site: DrawSite, shape: tuple[int, ...]) -> np.ndarray:
        """Uniform ``uint64`` values shaped ``shape`` (batch axis first)."""
        if not shape or shape[0] != self.batch:
            raise SimulationError(
                f"draw shape {shape} must lead with the {self.batch} live trials"
            )
        if site in self._drawn:
            raise SimulationError(
                f"draw site {DrawSite(site).name} drew twice in round "
                f"{self._round}; each site draws at most once per round"
            )
        self._drawn.add(site)
        self.draws += 1
        width = prod(shape[1:])
        steps = self._steps.get(width)
        if steps is None:
            steps = np.arange(width, dtype=np.uint64) * np.uint64(_GAMMA)
            self._steps[width] = steps
        offset = _mix_int((((self._round << 16) + site) * _GAMMA) & _MASK)
        values = self._keys[:, None] + (steps + np.uint64(offset))
        return _mix(values).reshape(shape)

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
