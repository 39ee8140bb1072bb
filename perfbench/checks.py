"""Output checks and the results digest.

The checks run outside the timed passes.  Each failure names a run (or a
pass) and counts against ``failed`` in the benchmark's result line.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
from typing import Iterable, Sequence

from repro.campaigns import (
    CampaignSpec,
    RunResult,
    RunSpec,
    default_executor,
    execute_run,
)
from repro.campaigns.batching import group_runs
from repro.network.batch import ADVERSARY_BATCH_KERNELS, build_batch_kernel
from workloads import PAPER_BOUNDED

#: Runs cut short by the round cap are continued up to their closed-form
#: bound only when the bound is at most this many rounds (Corollary 1 at
#: f=2 has a bound of 25 million rounds and is not continued).
CONTINUE_LIMIT = 10_000


def digest(results: Iterable[RunResult]) -> str:
    """SHA-256 of the sorted ``to_json()`` lines of a result set."""
    lines = sorted(result.to_json() for result in results)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def paper_bounds(spec: CampaignSpec) -> dict[str, int]:
    """Algorithm label -> closed-form stabilisation bound, for paper counters."""
    bounds: dict[str, int] = {}
    for algorithm in spec.algorithms:
        if algorithm.name not in PAPER_BOUNDED:
            continue
        bound = algorithm.build().stabilization_bound()
        if bound is not None:
            bounds[algorithm.label()] = bound
    return bounds


def run_failures(
    spec: CampaignSpec,
    runs: Sequence[RunSpec],
    results: Sequence[RunResult],
    bounds: dict[str, int],
) -> dict[str, str]:
    """Run id -> reason, for every stored result that fails a check."""
    failures: dict[str, str] = {}
    by_id = {result.run_id: result for result in results}
    for run in runs:
        if run.run_id not in by_id:
            failures[run.run_id] = "missing from the store"
    if len(results) != len(by_id):
        failures["<store>"] = f"{len(results) - len(by_id)} duplicate run id(s)"
    window = (spec.stop_after_agreement or 0) + spec.min_tail
    for result in results:
        if result.error is not None:
            failures[result.run_id] = f"error: {result.error}"
            continue
        bound = bounds.get(result.algorithm)
        if bound is not None:
            if result.within_bound is False:
                failures[result.run_id] = (
                    f"stabilised at round {result.stabilization_round}, "
                    f"beyond the closed-form bound {bound}"
                )
                continue
            if not result.stabilized and spec.max_rounds > bound + window:
                failures[result.run_id] = (
                    f"did not stabilise in {spec.max_rounds} rounds "
                    f"(closed-form bound {bound})"
                )
                continue
        if spec.fault_schedule is not None and result.recovered is not True:
            failures[result.run_id] = "did not recover after the fault schedule"
    return failures


def continue_capped(
    spec: CampaignSpec,
    runs: Sequence[RunSpec],
    results: Sequence[RunResult],
    bounds: dict[str, int],
) -> tuple[int, list[str]]:
    """Continue the runs the round cap cut short, up to their bound.

    A workload may cap rounds below a paper bound to keep its run time
    steady.  Its unstabilised runs of a bounded counter then run again,
    with the cap raised past the bound plus the agreement window, and must
    stabilise within the bound.  Returns ``(continued, failing run ids)``.
    """
    window = (spec.stop_after_agreement or 0) + spec.min_tail
    by_id = {result.run_id: result for result in results}
    extended = []
    for run in runs:
        result = by_id.get(run.run_id)
        bound = bounds.get(run.algorithm_label())
        if result is None or result.stabilized or bound is None:
            continue
        horizon = bound + window + 1
        if run.max_rounds < horizon <= CONTINUE_LIMIT:
            extended.append(dataclasses.replace(run, max_rounds=horizon))
    if not extended:
        return 0, []
    continued = default_executor(jobs=1, engine=spec.engine).run(extended)
    failing = [
        result.run_id
        for result in continued
        if result.error is not None or not result.stabilized or result.within_bound is False
    ]
    return len(extended), failing


def path_failures(spec: CampaignSpec, stats, runs: int) -> list[str]:
    """Whether every run took the path its spec implies.

    Runs without a fault schedule must all take the batch engine; runs
    with one must all take the schedule's named scalar fallback.
    """
    problems: list[str] = []
    if spec.fault_schedule is None:
        if stats.fallback or stats.batched != runs:
            problems.append(
                f"{stats.fallback} run(s) fell back to the scalar engine, "
                f"{stats.batched} of {runs} batched: {stats.fallback_reasons}"
            )
        return problems
    marker = f"fault schedule {spec.fault_schedule!r}"
    if stats.batched or stats.fallback != runs:
        problems.append(
            f"{stats.fallback} of {runs} run(s) took the schedule fallback, "
            f"{stats.batched} batched"
        )
    named = [reason for reason in stats.fallback_reasons if marker in reason]
    if not stats.fallback_reasons or len(named) != len(stats.fallback_reasons):
        problems.append(
            f"fallback reasons do not all name {marker}: {stats.fallback_reasons}"
        )
    return problems


def _bit_identical(run: RunSpec) -> bool:
    """Whether the stored result must equal a scalar re-run byte for byte."""
    if run.fault_schedule is not None:
        return True  # scheduled runs execute on the scalar engine itself
    if run.loss > 0.0 or run.delay > 0:
        return False
    kernel = build_batch_kernel(run.algorithm.build())
    if kernel is None or not kernel.deterministic:
        return False
    if run.adversary is None or not run.faulty:
        return True
    adversary = ADVERSARY_BATCH_KERNELS.get(run.adversary)
    return adversary is not None and adversary.is_deterministic_for(kernel)


def rerun_sample(
    runs: Sequence[RunSpec],
    results: Sequence[RunResult],
    seed: int,
    per_group: int,
) -> tuple[int, int, list[str]]:
    """Re-run a seeded sample of every bit-identical group on the scalar path.

    Returns ``(groups, re-runs, mismatches)``; a mismatch names the run.
    """
    by_id = {result.run_id: result for result in results}
    groups, _ = group_runs(runs)
    rng = random.Random(f"perfbench-sample-{seed}")
    checked_groups = 0
    reruns = 0
    mismatches: list[str] = []
    for indices in groups.values():
        if not _bit_identical(runs[indices[0]]):
            continue
        checked_groups += 1
        for index in rng.sample(indices, min(per_group, len(indices))):
            run = runs[index]
            reruns += 1
            stored = by_id.get(run.run_id)
            if stored is None or execute_run(run).to_json() != stored.to_json():
                mismatches.append(run.run_id)
    return checked_groups, reruns, mismatches
