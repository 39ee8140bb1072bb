"""The benchmark's workloads: one campaign shape each, seeded only by ``seed``.

Every workload is a closed batch job: one :class:`CampaignSpec` run in
process with ``jobs=1``.  The workload seed reaches the program only as
``CampaignSpec.seed``; the grid shape is the same for every seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.campaigns import AlgorithmSpec, CampaignSpec

#: Algorithms whose closed-form stabilisation bound comes from the paper
#: (Theorem 1 for figure2, Corollary 1 for corollary1).  naive-majority also
#: reports a bound, but it is the negative baseline: faults are expected to
#: break it, so it is not checked.
PAPER_BOUNDED = ("corollary1", "figure2")


@dataclass(frozen=True)
class Workload:
    """One named campaign shape.

    Why each workload was chosen is recorded in ``BENCHMARK.json``.
    """

    name: str
    #: ``build(seed, warmup)``: the measured campaign, or the small warm-up
    #: campaign of the same shape that set-up runs.
    build: Callable[[int, bool], CampaignSpec]
    #: Scalar re-runs per bit-identical group in the output checks.
    samples_per_group: int = 1


def _grid(seed: int, warmup: bool) -> CampaignSpec:
    # Counter sizes above 2 keep the randomised counter near the round cap,
    # which would make this a kernel workload; it widens over its coin-flip
    # seed offset instead, the deterministic counters over the counter size.
    counter_sizes = (2,) if warmup else (2, 3, 4, 5)
    coin_offsets = (0,) if warmup else tuple(range(8))
    randomized_n = (8,) if warmup else tuple(range(8, 25))
    algorithms = [
        AlgorithmSpec.create(
            "randomized-follow-majority",
            {"n": n, "f": (n - 1) // 3, "c": 2, "seed": offset},
        )
        for offset in coin_offsets
        for n in randomized_n
    ]
    for c in counter_sizes:
        algorithms += [
            AlgorithmSpec.create(
                "naive-majority", {"n": n, "c": c, "claimed_resilience": (n - 1) // 3}
            )
            for n in (12, 24)
        ]
    algorithms += [AlgorithmSpec.create("corollary1", {"f": f}) for f in (1, 2)]
    return CampaignSpec(
        name="perfbench-grid-many-cells",
        algorithms=tuple(algorithms),
        adversaries=("random-state", "crash", "mimic", "split-state"),
        # Far below the executor's 256-trial chunk: the grid widens (more
        # cells) rather than deepens (more runs per cell).
        runs_per_setting=2 if warmup else 8,
        seed=seed,
        max_rounds=100,
        stop_after_agreement=20,
        engine="batch",
    )


def _figure2_batch(seed: int, warmup: bool) -> CampaignSpec:
    return CampaignSpec(
        name="perfbench-figure2-batch",
        algorithms=(AlgorithmSpec.create("figure2", {"levels": 1}),),
        adversaries=("crash", "phase-king-skew"),
        # Four full 256-trial chunks per group.
        runs_per_setting=8 if warmup else 1024,
        seed=seed,
        # Crash runs have a long tail (a few per cent past 500 rounds) and a
        # chunk runs until its slowest trial; capping below that tail keeps
        # the pass time independent of the seed.  Capped runs are continued
        # to the Theorem 1 bound by the output checks.  The warm-up only
        # loads lazy imports, so it stops well before the tail.
        max_rounds=60 if warmup else 500,
        stop_after_agreement=16,
        engine="batch",
    )


def _figure2_churn(seed: int, warmup: bool) -> CampaignSpec:
    return CampaignSpec(
        name="perfbench-figure2-churn-scalar",
        algorithms=(AlgorithmSpec.create("figure2", {"levels": 1}),),
        adversaries=("none",),
        runs_per_setting=2 if warmup else 64,
        seed=seed,
        max_rounds=6000,
        stop_after_agreement=16,
        engine="auto",
        fault_schedule="churn",
    )


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="grid-many-cells",
            build=_grid,
        ),
        Workload(
            name="figure2-batch",
            build=_figure2_batch,
            samples_per_group=4,
        ),
        Workload(
            name="figure2-churn-scalar",
            build=_figure2_churn,
            samples_per_group=4,
        ),
    )
}
