#!/usr/bin/env python
"""Check that the NullObserver costs nothing on the batch hot path.

The instrumentation contract (see ``repro.obs``) is that the default
``observer=None`` / :data:`~repro.obs.NULL_OBSERVER` configuration costs
nothing on the batch hot path: :func:`~repro.obs.active` normalises both to
``None``, so every guard the instrumentation added collapses to one
``is not None`` check per block.  :func:`measure_null_overhead` verifies
that empirically by interleaved min-of-N timing of
:func:`repro.network.batch.run_batch_summaries` with ``observer=None``
versus ``observer=NULL_OBSERVER`` on a Figure-1-style workload.

Timing ratios on shared CI runners are noisy, so the measurement

* interleaves the two arms (thermal / frequency drift hits both equally),
* keeps the *minimum* wall-clock per arm across repeats (the minimum is
  the least-noise estimator for a deterministic workload), and
* retries the whole comparison a few times, keeping the best attempt —
  instrumentation overhead cannot be negative, so noise only ever
  inflates the ratio and the smallest observed value is the truest.

A third, informational arm times a *live* metrics-only observer so the
report also shows what turning observation on actually costs.

Usage::

    python scripts/check_null_observer.py    # exit 1 above the 2% budget
"""

from __future__ import annotations

import os
import random
import sys
import time
from typing import Any

SCRIPTS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(SCRIPTS_DIR)
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.network.batch import (  # noqa: E402
    BatchTrial,
    build_batch_kernel,
    run_batch_summaries,
)
from repro.obs import NULL_OBSERVER, MetricsRegistry, Observer  # noqa: E402
from repro.semantics import build_algorithm  # noqa: E402

#: Trials in the workload, interleaved timings per arm, and whole
#: comparisons tried before giving up.
RUNS = 40
REPEATS = 3
ATTEMPTS = 4

#: The overhead budget: NullObserver within 2% of no observer at all.
BUDGET = 0.02


def build_null_overhead_workload() -> dict[str, Any]:
    """The batch workload as ``run_batch_summaries`` arguments.

    The randomised follow-the-majority counter on ``n = 16`` under the
    random-state adversary: the hot path the overhead budget is defined
    against.
    """
    algorithm = build_algorithm("randomized-follow-majority", n=16, f=5, c=2)
    kernel = build_batch_kernel(algorithm)
    if kernel is None:  # pragma: no cover - registry regression guard
        raise RuntimeError("randomized-follow-majority lost its batch kernel")
    rng = random.Random(20150721)
    trials = [
        BatchTrial(
            sim_seed=rng.randrange(2**31),
            faulty=tuple(sorted(rng.sample(range(16), 5))),
        )
        for _ in range(RUNS)
    ]
    return {
        "algorithm": algorithm,
        "kernel": kernel,
        "trials": trials,
        "kwargs": {
            "adversary_strategy": "random-state",
            "max_rounds": 300,
            "stop_after_agreement": 10,
        },
    }


def _time_arm(workload: dict[str, Any], observer: Any) -> float:
    started = time.perf_counter()
    run_batch_summaries(
        workload["algorithm"],
        workload["kernel"],
        workload["trials"],
        observer=observer,
        **workload["kwargs"],
    )
    return time.perf_counter() - started


def measure_null_overhead() -> dict[str, Any]:
    """Measure the NullObserver's batch-hot-path overhead.

    Returns a dict with the per-arm minimum wall-clock seconds, the
    ``overhead`` fraction (``null / baseline - 1``), the informational
    ``observed_overhead`` of a live metrics-only observer, and
    ``within_budget``.  Keeps the best of :data:`ATTEMPTS` comparisons —
    see the module docstring for why that is the honest estimator.
    """
    workload = build_null_overhead_workload()
    # One warm-up pass keeps one-time costs (NumPy imports, kernel caches)
    # out of both arms.
    _time_arm(workload, None)
    best: dict[str, Any] | None = None
    for attempt in range(1, ATTEMPTS + 1):
        baseline = null = observed = float("inf")
        for _ in range(REPEATS):
            baseline = min(baseline, _time_arm(workload, None))
            null = min(null, _time_arm(workload, NULL_OBSERVER))
            live = Observer(metrics=MetricsRegistry(), round_stride=0)
            observed = min(observed, _time_arm(workload, live))
        result = {
            "attempt": attempt,
            "baseline_seconds": baseline,
            "null_seconds": null,
            "observed_seconds": observed,
            "overhead": null / baseline - 1.0,
            "observed_overhead": observed / baseline - 1.0,
        }
        if best is None or result["overhead"] < best["overhead"]:
            best = result
        if best["overhead"] <= BUDGET:
            break
    assert best is not None
    best["within_budget"] = best["overhead"] <= BUDGET
    return best


def main() -> int:
    report = measure_null_overhead()
    print(
        f"null-observer overhead: {report['overhead'] * 100:+.2f}% "
        f"(budget {BUDGET * 100:.1f}%, attempt {report['attempt']}/{ATTEMPTS}; "
        f"no observer {report['baseline_seconds'] * 1e3:.1f} ms, "
        f"NullObserver {report['null_seconds'] * 1e3:.1f} ms, "
        f"live observer {report['observed_overhead'] * 100:+.2f}%)"
    )
    if not report["within_budget"]:
        print(
            f"FAIL: null-observer overhead exceeds the {BUDGET * 100:.1f}% budget",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
