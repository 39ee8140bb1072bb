"""Experiments E5–E8 — the quantitative claims of Theorem 1, Corollary 1, Theorems 2 and 3.

Four sub-experiments, each a function returning an
:class:`~repro.experiments.common.ExperimentResult`:

* :func:`run_theorem1_bounds` — instantiate boosted counters for a sweep of
  block counts ``k`` (over the trivial base), check the exact space formula
  ``S(B) = S(A) + ⌈log(C+1)⌉ + 1`` and measure stabilisation against the
  bound ``T(A) + 3(F+2)(2m)^k``.
* :func:`run_corollary1_scaling` — exact bounds of the optimal-resilience
  construction for a range of ``f`` (the ``f^{O(f)}`` blow-up), plus a
  measured row for ``f = 1``.
* :func:`run_theorem2_scaling` — the fixed-``k`` schedules for several
  ``ε``: verify ``n/f <= 8 f^ε`` and the ``O(log² f)`` state bits.
* :func:`run_theorem3_scaling` — the varying-``k`` schedules: linear-in-``f``
  stabilisation (ratio ``T/f`` bounded) and ``O(log² f / log log f)`` bits,
  asymptotically better than Theorem 2 for the same resilience.

Run with ``python -m repro experiment scaling``
"""

from __future__ import annotations

import math

from repro.analysis.bounds import theorem1_space_bits, theorem3_space_envelope
from repro.core.boosting import BoostedCounter
from repro.core.parameters import BoostingParameters
from repro.core.recursion import (
    plan_corollary1,
    plan_figure2,
    plan_theorem2,
    plan_theorem3,
)
from repro.counters.trivial import TrivialCounter
from repro.experiments.common import ExperimentResult, run_counter_trials, summarize_trials
from repro.network.adversary import PhaseKingSkewAdversary

__all__ = [
    "run_theorem1_bounds",
    "run_corollary1_scaling",
    "run_theorem2_scaling",
    "run_theorem3_scaling",
]


def run_theorem1_bounds(
    k_values: tuple[int, ...] = (4, 5),
    counter_size: int = 2,
    trials: int = 4,
    seed: int = 0,
    max_rounds_cap: int = 40_000,
    executor=None,
) -> ExperimentResult:
    """E5 — Theorem 1's exact time/space bounds on single-level boosted counters.

    Block counts beyond 5 are feasible analytically but their typical
    stabilisation times (a constant fraction of ``3(F+2)(2m)^k``) become too
    large to simulate; the default sweep therefore stops at ``k = 5``.
    """
    result = ExperimentResult(name="Theorem 1 — boosting bounds (single level over trivial base)")
    for k in k_values:
        resilience = BoostingParameters.largest_feasible_resilience(1, 0, k)
        params = BoostingParameters.for_inner(
            inner_n=1, inner_f=0, k=k, counter_size=counter_size, resilience=resilience
        )
        inner = TrivialCounter(c=params.minimal_inner_counter())
        counter = BoostedCounter(
            inner=inner, k=k, counter_size=counter_size, resilience=resilience
        )
        expected_bits = theorem1_space_bits(inner.state_bits(), counter_size)
        metrics = run_counter_trials(
            counter,
            adversary_factory=PhaseKingSkewAdversary,
            trials=trials,
            max_rounds=min(counter.stabilization_bound() or max_rounds_cap, max_rounds_cap),
            stop_after_agreement=12,
            seed=seed + k,
            executor=executor,
        )
        summary = summarize_trials(metrics)
        result.add_row(
            k=k,
            N=counter.n,
            F=counter.f,
            time_bound=counter.stabilization_bound(),
            measured_max=summary["max_stabilization"],
            within_bound=summary["within_bound"],
            state_bits=counter.state_bits(),
            formula_bits=expected_bits,
            formula_matches=counter.state_bits() == expected_bits,
        )
    result.add_note(
        "state_bits is computed from the implementation's state structure; formula_bits "
        "evaluates S(A) + ceil(log2(C+1)) + 1 — they must coincide exactly (Theorem 1)."
    )
    return result


def run_corollary1_scaling(
    f_values: tuple[int, ...] = (1, 2, 3, 4, 6, 8),
    c: int = 2,
    measured_trials: int = 4,
    seed: int = 0,
    executor=None,
) -> ExperimentResult:
    """E6 — Corollary 1: optimal resilience at the price of f^{O(f)} stabilisation."""
    result = ExperimentResult(name="Corollary 1 — optimal resilience, f^{O(f)} stabilisation")
    for f in f_values:
        plan = plan_corollary1(f=f, c=c)
        row = {
            "f": f,
            "n": plan.total_nodes(),
            "time_bound": plan.stabilization_bound(),
            "log2_time": round(math.log2(plan.stabilization_bound()), 1),
            "state_bits": plan.state_bits_bound(),
            "f_log_f_envelope": round(max(1.0, f * math.log2(max(f, 2))) + math.log2(c), 1),
        }
        if f == 1:
            counter = plan.instantiate()
            metrics = run_counter_trials(
                counter,
                adversary_factory=PhaseKingSkewAdversary,
                trials=measured_trials,
                max_rounds=counter.stabilization_bound() or 4000,
                stop_after_agreement=12,
                seed=seed,
                executor=executor,
            )
            summary = summarize_trials(metrics)
            row["measured_max"] = summary["max_stabilization"]
            row["within_bound"] = summary["within_bound"]
        result.add_row(**row)
    result.add_note(
        "log2_time grows roughly like f*log2(f) (i.e. time = f^{O(f)}), while the state "
        "bits stay O(f log f + log c) — the trade-off Corollary 1 states."
    )
    return result


def run_theorem2_scaling(
    epsilons: tuple[float, ...] = (0.5, 1.0 / 3.0, 0.25),
    f_targets: tuple[int, ...] = (4, 64, 1024, 2**16),
    c: int = 2,
) -> ExperimentResult:
    """E7 — Theorem 2: fixed k, resilience Ω(n^{1-ε}), O(f) time, O(log² f) bits."""
    result = ExperimentResult(name="Theorem 2 — fixed block count schedules")
    for epsilon in epsilons:
        for f_target in f_targets:
            plan = plan_theorem2(epsilon=epsilon, f_target=f_target, c=c)
            f = plan.resilience()
            n = plan.total_nodes()
            ratio = plan.node_to_fault_ratio()
            bound = plan.stabilization_bound()
            result.add_row(
                epsilon=round(epsilon, 3),
                f=f,
                n=n,
                n_over_f=round(ratio, 2),
                ratio_bound=round(8 * f**epsilon, 2),
                ratio_ok=ratio <= 8 * f**epsilon + 1e-9,
                time_over_f=round(bound / f, 1),
                state_bits=plan.state_bits_bound(),
                log2f_sq=round(math.log2(max(f, 2)) ** 2, 1),
            )
    result.add_note(
        "ratio_ok checks the proof's bound n/f <= 8 f^epsilon; time_over_f stays bounded "
        "for fixed epsilon (linear stabilisation); state_bits grows like log^2 f."
    )
    return result


def run_theorem3_scaling(
    phases: tuple[int, ...] = (1, 2, 3),
    c: int = 2,
) -> ExperimentResult:
    """E8 — Theorem 3: varying k, resilience n^{1-o(1)}, O(log² f / log log f) bits."""
    result = ExperimentResult(name="Theorem 3 — varying block count schedules")
    for P in phases:
        plan = plan_theorem3(phases=P, c=c)
        f = plan.resilience()
        n = plan.total_nodes()
        bound = plan.stabilization_bound()
        log_f = math.log2(max(f, 2))
        epsilon = math.log2(n / f) / log_f if f > 1 else float("inf")
        result.add_row(
            phases=P,
            levels=plan.depth,
            log2_f=round(log_f, 1),
            log2_n=round(math.log2(n), 1),
            effective_epsilon=round(epsilon, 3),
            time_over_f=round(bound / f, 2),
            state_bits=plan.state_bits_bound(),
            envelope_bits=round(theorem3_space_envelope(f, c), 1),
            bits_within_envelope=plan.state_bits_bound() <= theorem3_space_envelope(f, c),
        )
    comparison = ExperimentResult(name="")
    del comparison
    result.add_note(
        "effective_epsilon = log(n/f)/log(f) shrinks as the number of phases grows "
        "(resilience n^{1-o(1)}); time_over_f stays bounded (O(f) stabilisation); the "
        "state bits stay below the C * log^2 f / log log f envelope."
    )
    # Direct comparison against Theorem 2 at matched resilience.
    theorem2 = plan_theorem2(epsilon=0.25, f_target=plan_theorem3(phases=2, c=c).resilience(), c=c)
    theorem3 = plan_theorem3(phases=2, c=c)
    result.add_note(
        "At matched resilience (P=2 vs eps=0.25): Theorem 3 uses "
        f"{theorem3.state_bits_bound()} state bits vs Theorem 2's {theorem2.state_bits_bound()}; "
        f"figure-2 style k=3 recursion (for reference) at the same depth: "
        f"{plan_figure2(levels=2, c=c).state_bits_bound()} bits."
    )
    return result
