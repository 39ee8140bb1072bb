#!/usr/bin/env python
"""Append campaign-benchmark results to the committed ``BENCH_history.jsonl``.

``run`` invokes the unchanged ``perfbench/run.py`` of a checkout (this one by
default) for one workload and seed, for the ``run_seconds`` that
``BENCHMARK.json`` declares, and appends one JSON row to the ledger: the
benchmark's result line, the results digest, the checkout's git SHA (and
whether its tree had uncommitted changes) and the host.  A run whose checks
fail is reported and not recorded.  ``compare`` pairs the rows of two SHAs
and prints the pair statistics a speed claim needs.

Usage (from the repository root)::

    python scripts/bench_ledger.py run --workload grid-many-cells --seed 1
    python scripts/bench_ledger.py run --workload grid-many-cells --seed 1 \\
        --checkout ../parent-checkout
    python scripts/bench_ledger.py compare PARENT_SHA CHANGE_SHA

Alternate ``run`` between the parent's checkout and the change's so both
arms see the same machine drift.  ``compare`` skips rows that failed their
checks or were measured on a tree with uncommitted changes, and zips the
i-th parent row of a (workload, seed, seconds, trace) with its i-th change
row, so a stray row shifts no pair outside its own configuration.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

REPO_ROOT = Path(__file__).resolve().parent.parent
LEDGER = REPO_ROOT / "BENCH_history.jsonl"

_DIGEST = re.compile(r"^digest sha256=(\w+)", re.MULTILINE)


def _git(checkout: Path, *args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(checkout), *args],
        stdout=subprocess.PIPE,
        text=True,
        check=True,
    ).stdout.strip()


def host() -> dict[str, Any]:
    """The machine a row was measured on."""
    return {
        "node": platform.node(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
    }


def measure(
    checkout: Path, workload: str, seed: int, seconds: float, trace: int
) -> tuple[int, dict[str, Any]]:
    """Run one benchmark invocation in ``checkout``; return its exit code and row."""
    completed = subprocess.run(
        [
            sys.executable,
            "perfbench/run.py",
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=checkout,
        stdout=subprocess.PIPE,
        text=True,
        check=False,
    )
    lines = completed.stdout.strip().splitlines()
    digest = _DIGEST.search(completed.stdout)
    if not lines or digest is None:
        raise RuntimeError(
            f"perfbench exited with code {completed.returncode} and no result line"
        )
    row = {
        "sha": _git(checkout, "rev-parse", "HEAD"),
        "dirty": bool(_git(checkout, "status", "--porcelain", "--untracked-files=no")),
        "recorded": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "host": host(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "digest": digest.group(1),
        "result": json.loads(lines[-1]),
    }
    return completed.returncode, row


def read_ledger(path: Path) -> list[dict[str, Any]]:
    if not path.exists():
        return []
    with path.open(encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _quartile_spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return high - low


def compare(
    rows: list[dict[str, Any]], base: str, head: str, metric: str, higher_is_better: bool
) -> list[dict[str, Any]]:
    """Per-workload pair statistics of ``metric`` for two SHAs (or SHA prefixes).

    Only clean rows count: checks passed and no uncommitted changes.  The
    i-th such ``base`` row of a (workload, seed, seconds, trace) that reports
    ``metric`` pairs with its i-th such ``head`` row.  ``clear`` holds when
    the head run is better in at least nine pairs of ten and the median
    moved the good way by more than the spread between the base runs'
    quartiles.
    """
    series: dict[tuple[Any, ...], list[float]] = {}
    for row in rows:
        value = row["result"]["metrics"].get(metric)
        if value is None or row["dirty"] or not row["result"]["correct"]:
            continue
        config = (row["workload"], row["seed"], row["seconds"], row["trace"])
        for sha in (base, head):
            if row["sha"].startswith(sha):
                series.setdefault((sha, *config), []).append(value["value"])
    pairs_of: dict[str, list[tuple[float, float]]] = {}
    for (sha, *config), values in series.items():
        if sha == base:
            pairs_of.setdefault(config[0], []).extend(
                zip(values, series.get((head, *config), []))
            )
    sign = 1 if higher_is_better else -1
    report = []
    for workload in dict.fromkeys(row["workload"] for row in rows):
        pairs = pairs_of.get(workload)
        if not pairs:
            continue
        before = statistics.median(pair[0] for pair in pairs)
        after = statistics.median(pair[1] for pair in pairs)
        spread = _quartile_spread([pair[0] for pair in pairs])
        wins = sum(1 for b, a in pairs if sign * (a - b) > 0)
        report.append(
            {
                "workload": workload,
                "metric": metric,
                "pairs": len(pairs),
                "wins": wins,
                "base_median": before,
                "head_median": after,
                "ratio": after / before,
                "base_iqr": spread,
                "clear": wins >= 0.9 * len(pairs) and sign * (after - before) > spread,
            }
        )
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Campaign-benchmark ledger.")
    parser.add_argument("--ledger", type=Path, default=LEDGER)
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="measure once and append one row")
    run.add_argument("--workload", required=True)
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument(
        "--checkout", type=Path, default=REPO_ROOT,
        help="git checkout whose perfbench/run.py and source to measure",
    )
    pairs = commands.add_parser("compare", help="pair statistics of two SHAs")
    pairs.add_argument("base")
    pairs.add_argument("head")
    pairs.add_argument("--metric", default="runs_per_s")
    args = parser.parse_args(argv)
    declared = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    if args.command == "run":
        code, row = measure(
            args.checkout.resolve(),
            args.workload,
            args.seed,
            float(declared["run_seconds"]),
            args.trace,
        )
        summary = (
            f"{row['sha'][:12]} {row['workload']} seed={row['seed']} "
            f"digest={row['digest'][:16]} "
            + " ".join(
                f"{name}={entry['value']:.6g}"
                for name, entry in row["result"]["metrics"].items()
            )
        )
        if code != 0:
            print(f"checks failed, row not recorded: {summary}", file=sys.stderr)
            return code
        with args.ledger.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
        print(summary)
        return 0

    better = {
        metric["name"]: metric["better"]
        for metric in declared["end_to_end"] + declared["per_layer"]
    }
    if args.metric not in better:
        parser.error(f"unknown metric {args.metric!r}")
    report = compare(
        read_ledger(args.ledger),
        args.base,
        args.head,
        args.metric,
        better[args.metric] == "higher",
    )
    for entry in report:
        print(
            f"{entry['workload']}: {entry['metric']} {entry['base_median']:.6g} -> "
            f"{entry['head_median']:.6g} ({entry['ratio']:.3f}x), "
            f"better in {entry['wins']}/{entry['pairs']} pairs, "
            f"base IQR {entry['base_iqr']:.4g}, "
            f"{'clear' if entry['clear'] else 'not clear'}"
        )
    return 0 if report else 1


if __name__ == "__main__":
    sys.exit(main())
