"""Campaign benchmark: one workload per invocation, each in fresh processes.

Usage (from the repository root)::

    python3 perfbench/run.py --workload grid-many-cells --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics (``runs_per_s``, ``setup_s``,
``peak_rss_mb``); ``--trace 1`` prints the per-layer metrics of a traced
run.  The workloads and metrics are declared in ``BENCHMARK.json``; the
per-layer predictions are in ``perfbench/README.md``.

The set-up time is the median over several fresh processes: a few that only
set up, plus the measuring process itself.  Output checks run in the
measuring process after its passes; any failure makes this command exit 1.
The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / ".perfbench-out"

#: Extra processes that only set up, so setup_s is a median of this + 1.
SETUP_ONLY_PROCESSES = 4

#: Wall-clock budget for all child processes of one invocation.
BUDGET_SECONDS = 170.0


def declared_metrics(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` declares for this mode."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    key = "per_layer" if trace else "end_to_end"
    return {metric["name"]: metric["unit"] for metric in declared[key]}


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    # One campaign, one thread: the machine is small and shared.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    env.pop("PYTHONPATH", None)
    return env


def _spawn(args: argparse.Namespace, deadline: float, setup_only: bool) -> dict:
    """Run one fresh worker process and return its JSON report."""
    command = [
        sys.executable,
        str(WORKER),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out-dir", str(OUT_DIR),
    ]
    if setup_only:
        command.append("--setup-only")
    spawned_at = time.monotonic()
    command += ["--spawned-at", repr(spawned_at)]
    completed = subprocess.run(
        command,
        cwd=ROOT,
        env=_child_env(),
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
        check=False,
    )
    lines = completed.stdout.strip().splitlines()
    report = json.loads(lines[-1]) if lines else {}
    if completed.returncode not in (0, 1) or not report:
        raise RuntimeError(
            f"worker exited with code {completed.returncode}: {completed.stdout[-2000:]}"
        )
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Campaign benchmark (see BENCHMARK.json).")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = declared_metrics(args.trace)
    deadline = time.monotonic() + BUDGET_SECONDS
    try:
        setups = (
            []
            if args.trace
            else [_spawn(args, deadline, True)["setup_s"] for _ in range(SETUP_ONLY_PROCESSES)]
        )
        report = _spawn(args, deadline, False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    metrics = report["metrics"]
    if not args.trace:
        setups.append(metrics["setup_s"])
        metrics["setup_s"] = statistics.median(setups)
    print(f"workload {report['workload']} seed={report['seed']} trace={args.trace}")
    print(f"digest sha256={report['digest']} runs_per_pass={report['runs_per_pass']}")
    print(
        f"checks: {report['reruns']} scalar re-run(s) over {report['rerun_groups']} "
        f"bit-identical group(s); {report['continued']} capped run(s) continued "
        f"to their bound; {len(report['problems'])} problem(s)"
    )
    for problem in report["problems"]:
        print(f"  FAIL {problem}")
    failed_frac = report["failed"] / report["attempted"]
    print(f"failed_frac = {failed_frac:.6g} fraction ({report['failed']}/{report['attempted']} runs)")
    if not args.trace:
        print(f"setup samples (s): {', '.join(f'{value:.4f}' for value in setups)}")
        print(f"pass seconds: {', '.join(f'{value:.4f}' for value in report['pass_seconds'])}")
    else:
        print(f"traced passes: {report['traced_passes']}, untraced passes: {report['passes']}")
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": bool(report["correct"]),
                "attempted": int(report["attempted"]),
                "failed": int(report["failed"]),
                "metrics": {
                    name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
