"""One workload in one fresh process: set-up, passes, output checks.

Started by ``run.py``; prints one JSON object on its last stdout line.

* ``--setup-only``: set up and report ``setup_s``, run no pass.
* ``--trace 0``: timed passes (no wrappers, no observer) for ``--seconds``.
* ``--trace 1``: untraced and traced passes alternate for ``--seconds``;
  the traced ones record spans and feed a live ``repro.obs`` observer.

A pass is what ``repro campaign run`` followed by ``repro campaign
summarize`` does: ``run_campaign(spec, store=CampaignStore(tmp))`` with a
``jobs=1`` executor, then ``summarize_results(store.load())``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent


@dataclass
class PassOutcome:
    seconds: float
    results: list
    stats: Any
    store_bytes: int
    metrics: dict | None


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    location = Path(repro.__file__).resolve()
    if ROOT / "src" not in location.parents:
        raise SystemExit(f"repro imported from {location}, not from {ROOT / 'src'}")


def run_pass(spec, workdir: Path, observer=None) -> PassOutcome:
    """One timed pass into a fresh store under ``workdir``."""
    import repro.campaigns.results as results_module
    import repro.campaigns.runner as runner_module
    from repro.campaigns import CampaignStore, default_executor

    path = Path(tempfile.mkdtemp(dir=workdir)) / "store.jsonl"
    store = CampaignStore(path)
    executor = default_executor(jobs=1, engine=spec.engine)
    started = time.perf_counter()
    runner_module.run_campaign(spec, store=store, executor=executor, observer=observer)
    results = store.load()
    results_module.summarize_results(results)
    seconds = time.perf_counter() - started
    store_bytes = path.stat().st_size
    shutil.rmtree(path.parent)
    snapshot = observer.metrics.snapshot() if observer is not None else None
    return PassOutcome(seconds, results, executor.stats, store_bytes, snapshot)


def _cross_check(snapshot: dict, spans: dict, pass_id: int) -> list[str]:
    """Compare the observer's own counters with the spans of one pass."""
    import numpy as np

    names = [str(name) for name in spans["names"]]
    mine = spans["pass_id"] == pass_id

    def spans_named(name: str) -> np.ndarray:
        if name not in names:
            return np.zeros(len(mine), dtype=bool)
        return mine & (spans["name_id"] == names.index(name))

    steps = spans_named("kernels.step")
    counters = snapshot["counters"]
    step_hist = snapshot["histograms"].get("batch.step_seconds", {})
    pairs = (
        ("batch.trial_rounds", counters.get("batch.trial_rounds", 0),
         int(spans["width"][steps].sum())),
        ("batch.step_seconds count", step_hist.get("count", 0), int(steps.sum())),
        ("executor.runs_batched", counters.get("executor.runs_batched", 0),
         int(spans_named("batching.reduce_summary").sum())),
        ("engine.rounds", counters.get("engine.rounds", 0),
         int(spans_named("simulator.round").sum())),
    )
    return [
        f"observer {name} = {observed}, spans give {traced}"
        for name, observed, traced in pairs
        if observed != traced
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args(argv)

    # ---- set-up: imports, spec, warm-up campaign ------------------------ #
    _import_program()
    import numpy  # noqa: F401 - part of the measured set-up

    import checks
    import tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    spec = workload.build(args.seed, False)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=args.out_dir))
    try:
        run_pass(workload.build(args.seed, True), workdir)
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return _measure(args, workload, spec, workdir, setup_s, checks, tracing)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workload, spec, workdir, setup_s, checks, tracing) -> int:
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.observer import Observer

    runs = spec.expand()
    bounds = checks.paper_bounds(spec)
    problems: list[str] = []
    failed = 0
    digests: set[str] = set()

    def check(label: str, outcome: PassOutcome) -> None:
        """Per-pass output checks, run between passes, never inside one."""
        nonlocal failed
        bad = checks.run_failures(spec, runs, outcome.results, bounds)
        path = checks.path_failures(spec, outcome.stats, len(runs))
        digests.add(checks.digest(outcome.results))
        if len(digests) > 1:
            path.append("results digest differs from an earlier pass")
        failed += len(runs) if path else len(bad)
        problems.extend(f"{label}: {problem}" for problem in path)
        problems.extend(
            f"{label}: {run_id}: {reason}" for run_id, reason in sorted(bad.items())[:5]
        )

    deadline = time.perf_counter() + args.seconds
    untraced: list[PassOutcome] = []
    traced: list[PassOutcome] = []
    tracer = tracing.Tracer()
    before = tracing.original_bindings()
    latest: list = []
    while not untraced or (args.trace and not traced) or time.perf_counter() < deadline:
        latest = []  # keep one result set alive at a time
        if args.trace and len(traced) < len(untraced):
            tracer.current_pass = len(traced)
            with tracing.Wrappers(tracer):
                observer = Observer(metrics=MetricsRegistry())
                outcome = run_pass(spec, workdir, observer)
            traced.append(outcome)
            check(f"traced pass {len(traced) - 1}", outcome)
        else:
            outcome = run_pass(spec, workdir)
            untraced.append(outcome)
            check(f"untraced pass {len(untraced) - 1}", outcome)
        latest, outcome.results = outcome.results, []
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # ---- scalar re-runs of the bit-identical groups --------------------- #
    groups, reruns, mismatches = checks.rerun_sample(
        runs, latest, args.seed, workload.samples_per_group
    )
    continued, unbounded = checks.continue_capped(spec, runs, latest, bounds)
    failed += len(mismatches) + len(unbounded)
    problems += [f"scalar re-run differs: {run_id}" for run_id in mismatches]
    problems += [f"not stabilised within its bound: {run_id}" for run_id in unbounded]
    if groups == 0:
        failed += 1
        problems.append("no bit-identical group to re-run on the scalar path")

    report: dict[str, Any] = {
        "workload": workload.name,
        "seed": args.seed,
        "runs_per_pass": len(runs),
        "digest": digests.pop() if len(digests) == 1 else "mismatch",
        "rerun_groups": groups,
        "reruns": reruns,
        "continued": continued,
        "passes": len(untraced),
        "attempted": len(runs) * (len(untraced) + len(traced)) + reruns + continued,
        "failed": failed,
    }
    if args.trace:
        spans = tracer.arrays()
        # One file per workload, replaced by each traced run, so repeated
        # runs do not fill the disk; the seed is stored inside.
        tracer.write(args.out_dir / f"spans-{workload.name}.npz", seed=args.seed)
        if tracing.original_bindings() != before:
            problems.append("span wrappers were not all restored")
        for index, outcome in enumerate(traced):
            problems += [
                f"traced pass {index}: {problem}"
                for problem in _cross_check(outcome.metrics, spans, index)
            ]
        report["metrics"] = _layer_metrics(tracing, spans, runs, untraced, traced)
        report["traced_passes"] = len(traced)
    else:
        report["metrics"] = {
            "runs_per_s": statistics.median(
                len(runs) / outcome.seconds for outcome in untraced
            ),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        report["pass_seconds"] = [outcome.seconds for outcome in untraced]
    report["problems"] = problems
    report["correct"] = not problems and failed == 0
    print(json.dumps(report))
    return 0 if report["correct"] else 1


def _layer_metrics(tracing, spans, runs, untraced, traced) -> dict[str, float]:
    """Per-layer metrics of the traced passes, plus the tracing overhead."""
    from repro.campaigns.batching import group_runs

    passes = len(traced)
    metrics = tracing.layer_metrics(spans, passes)
    traced_s = [outcome.seconds for outcome in traced]
    untraced_s = [outcome.seconds for outcome in untraced]
    self_total = sum(metrics[name] for name in tracing.SELF_METRICS.values())
    metrics["trace.pass_s"] = sum(traced_s) / passes
    metrics["trace.unattributed_s"] = metrics["trace.pass_s"] - self_total
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
    )
    metrics["spec.runs"] = float(len(runs))
    metrics["batching.groups"] = float(len(group_runs(runs)[0]))
    metrics["batching.batched_runs"] = sum(o.stats.batched for o in traced) / passes
    metrics["batching.fallback_runs"] = sum(o.stats.fallback for o in traced) / passes
    metrics["batch.compactions"] = sum(
        o.metrics["counters"].get("batch.compactions", 0) for o in traced
    ) / passes
    metrics["store.bytes_per_run"] = sum(o.store_bytes for o in traced) / (
        passes * len(runs)
    )
    return metrics


if __name__ == "__main__":
    sys.exit(main())
