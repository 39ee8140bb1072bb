"""Metrics extracted from execution traces.

The experiments aggregate, over many adversarial trials, the empirical
stabilisation time, whether the theoretical bound was respected, agreement
quality before stabilisation and (for pulling-model traces) the per-round
message counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from repro.network.stabilization import stabilization_from_values
from repro.network.trace import ExecutionTrace

__all__ = [
    "TrialMetrics",
    "trial_metrics",
    "trial_metrics_from_values",
    "agreement_fraction",
    "post_agreement_failure_rate",
    "post_agreement_failure_rate_from_values",
    "pull_statistics",
]


@dataclass(frozen=True)
class TrialMetrics:
    """Summary of a single simulated trial.

    Attributes
    ----------
    stabilized:
        Whether the trace ends with a correct counting suffix.
    stabilization_round:
        Empirical stabilisation round (``None`` if never stabilised).
    rounds_simulated:
        Number of rounds executed.
    within_bound:
        True when the empirical stabilisation round does not exceed the
        algorithm's theoretical bound (``None`` when no bound is known or the
        trace did not stabilise).
    agreement_fraction:
        Fraction of rounds in which all correct nodes agreed on the output.
    faulty:
        The faulty set of the trial.
    """

    stabilized: bool
    stabilization_round: int | None
    rounds_simulated: int
    within_bound: bool | None
    agreement_fraction: float
    faulty: tuple[int, ...]


def _disagreed(value: int | None) -> bool:
    """Disagreement in either agreed-value representation.

    ``None`` in the trace representation, any negative integer in the batch
    engine's array representation.
    """
    return value is None or value < 0


def _agreement_fraction(values: Sequence[int | None]) -> float:
    if not values:
        return 0.0
    return sum(1 for value in values if not _disagreed(value)) / len(values)


def agreement_fraction(trace: ExecutionTrace) -> float:
    """Fraction of recorded rounds in which all correct outputs agreed."""
    return _agreement_fraction(trace.agreed_values())


def trial_metrics(
    trace: ExecutionTrace, bound: int | None = None, min_tail: int = 2
) -> TrialMetrics:
    """Compute :class:`TrialMetrics` for one trace."""
    return trial_metrics_from_values(
        trace.agreed_values(),
        trace.c,
        bound=bound,
        min_tail=min_tail,
        faulty=tuple(sorted(trace.faulty)),
    )


def trial_metrics_from_values(
    values: Sequence[int | None],
    c: int,
    bound: int | None = None,
    min_tail: int = 2,
    faulty: tuple[int, ...] = (),
) -> TrialMetrics:
    """:class:`TrialMetrics` from a bare per-round agreed-value sequence.

    The one home of the within-bound test and the agreement fraction: the
    trace-based :func:`trial_metrics` and the campaign reducer
    (:func:`repro.campaigns.results.reduce_run`, behind both engines) call
    it.  Disagreement is ``None`` or any negative integer.
    """
    result = stabilization_from_values(values, c, min_tail)
    within: bool | None = None
    if bound is not None and result.stabilized and result.round is not None:
        within = result.round <= bound
    return TrialMetrics(
        stabilized=result.stabilized,
        stabilization_round=result.round,
        rounds_simulated=len(values),
        within_bound=within,
        agreement_fraction=_agreement_fraction(values),
        faulty=faulty,
    )


def post_agreement_failure_rate(trace: ExecutionTrace) -> float:
    """Fraction of rounds *after the first agreement* in which agreement broke.

    The empirical counterpart of the per-round failure probability
    ``η^{-κ}`` of Theorem 4: once a sampled counter has agreed, every later
    disagreement is caused by an unlucky sample.  Returns ``1.0`` when the
    trace never agrees (or agrees only in its final round), so a
    never-agreeing run reads as maximally unreliable.
    """
    return post_agreement_failure_rate_from_values(trace.agreed_values())


def post_agreement_failure_rate_from_values(
    values: Sequence[int | None],
) -> float:
    """The failure rate on a bare per-round agreed-value sequence.

    Disagreement is ``None`` (trace representation) or any negative integer
    (the batch engine's array representation); one implementation serves
    both the scalar and the vectorised reductions.
    """
    first = next(
        (i for i, value in enumerate(values) if not _disagreed(value)), None
    )
    if first is None or first + 1 >= len(values):
        return 1.0
    tail = values[first + 1 :]
    failures = sum(1 for value in tail if _disagreed(value))
    return failures / len(tail)


def pull_statistics(trace: ExecutionTrace) -> dict[str, Any]:
    """Aggregate the pulling-model metadata recorded per round.

    Returns the maximum and mean of the per-round ``max_pulls`` values plus
    the corresponding bit counts; returns zeros for traces from the broadcast
    simulator (which record no pull metadata).
    """
    max_pulls = [record.metadata.get("max_pulls", 0) for record in trace.rounds]
    max_bits = [record.metadata.get("max_bits", 0) for record in trace.rounds]
    if not max_pulls:
        return {"max_pulls": 0, "mean_pulls": 0.0, "max_bits": 0}
    return {
        "max_pulls": max(max_pulls),
        "mean_pulls": sum(max_pulls) / len(max_pulls),
        "max_bits": max(max_bits),
    }
