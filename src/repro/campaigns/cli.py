"""The campaign-grid commands: ``repro run`` and ``repro campaign ...``.

``repro run`` and ``repro campaign define`` share one flag table
(:func:`add_grid_arguments`) and one compiler (:func:`compile_grid`, a
:class:`~repro.scenarios.Scenario` builder chain ending in
:meth:`~repro.scenarios.Scenario.to_campaign_spec`).  ``run`` executes the
grid at once; ``define`` writes it to a JSON definition file for
``campaign run`` — and the same flags give byte-identical stores either way::

    python -m repro run "naive-majority:n=6,c=3,claimed_resilience=1" \\
        --adversary crash --faults 1 --runs 25 --store demo.jsonl
    python -m repro campaign define \\
        --algorithm "naive-majority:n=6,c=3,claimed_resilience=1" \\
        --adversary crash --faults 1 --runs 25 --out demo.campaign.json
    python -m repro campaign run demo.campaign.json --store demo.jsonl --jobs 4
    python -m repro campaign resume demo.campaign.json --store demo.jsonl
    python -m repro campaign summarize demo.jsonl

Algorithms are ``name`` or ``name:key=value,...`` with catalogue names
(:data:`repro.semantics.ALGORITHM_SEMANTICS`) and values parsed as JSON
scalars when possible (``levels=2`` is an int).  The communication model is
read from the catalogue: pulling-model grids (``sampled-boosted``) record
``max_pulls`` / ``max_bits`` per run, and a grid mixing models is rejected.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from repro.campaigns.executor import default_executor
from repro.campaigns.results import (
    CampaignStore,
    RunResult,
    group_by_fields,
    summarize_results,
)
from repro.campaigns.runner import CampaignReport, run_campaign
from repro.campaigns.spec import ENGINES, FAULT_PATTERNS, AlgorithmSpec, CampaignSpec
from repro.core.errors import ReproError
from repro.obs.cli import add_observability_arguments, observation_from_args
from repro.scenarios import Scenario

__all__ = [
    "add_grid_arguments",
    "compile_grid",
    "register_run_command",
    "register_commands",
    "dispatch",
    "parse_algorithm",
    "parse_num_faults",
    "parse_fault_schedule",
]


def _parse_scalar(text: str) -> Any:
    """Parse a parameter value: JSON scalar when possible, else the raw string."""
    try:
        return json.loads(text)
    except ValueError:
        return text


def _parse_reference(argument: str, kind: str) -> tuple[str, dict[str, Any]]:
    """Parse ``name`` or ``name:key=value,key=value`` into a name and params."""
    name, _, params_text = argument.partition(":")
    name = name.strip()
    if not name:
        raise argparse.ArgumentTypeError(f"empty {kind} name in {argument!r}")
    params: dict[str, Any] = {}
    if params_text.strip():
        for pair in params_text.split(","):
            key, sep, value = pair.partition("=")
            if not sep or not key.strip():
                raise argparse.ArgumentTypeError(
                    f"malformed {kind} parameter {pair!r} in {argument!r} "
                    "(expected key=value)"
                )
            params[key.strip()] = _parse_scalar(value.strip())
    return name, params


def parse_algorithm(argument: str) -> AlgorithmSpec:
    """Parse ``name`` or ``name:key=value,key=value`` into an AlgorithmSpec."""
    return AlgorithmSpec.create(*_parse_reference(argument, "algorithm"))


def parse_num_faults(argument: str) -> int | str:
    """Parse a fault count; :meth:`Scenario.faults` resolves ``auto`` (= f)."""
    try:
        return int(argument)
    except ValueError:
        return argument


def parse_fault_schedule(argument: str) -> tuple[str, tuple[tuple[str, Any], ...]]:
    """Parse ``name`` or ``name:key=value,key=value`` into a schedule reference.

    The name is resolved (and the parameters validated) by
    :class:`~repro.campaigns.spec.CampaignSpec`.
    """
    name, params = _parse_reference(argument, "fault-schedule")
    return name, tuple(sorted(params.items()))


# ---------------------------------------------------------------------- #
# The one flag table and its compiler
# ---------------------------------------------------------------------- #


def _add_engine_argument(parser: argparse.ArgumentParser, default: str | None) -> None:
    """``--engine``: the grid's engine, or (default ``None``) an override."""
    role = "execution engine" if default else "override the definition file's engine"
    parser.add_argument(
        "--engine",
        choices=list(ENGINES),
        default=default,
        help=(
            f"{role}: 'auto' vectorises bit-identical run groups, 'batch' "
            "forces the NumPy batch engine, 'scalar' runs one simulation at a time"
        ),
    )


def add_grid_arguments(
    parser: argparse.ArgumentParser, *, positional_algorithm: bool = False
) -> None:
    """Add the campaign-grid flags shared by ``repro run`` and ``campaign define``.

    Only the algorithm is spelled differently: positional for ``run``
    (``positional_algorithm=True``), repeated ``--algorithm`` for ``define``.
    """
    spelling: dict[str, Any]
    if positional_algorithm:
        name, spelling = "algorithm", {"nargs": "+"}
    else:
        name, spelling = "--algorithm", {"action": "append", "required": True}
    parser.add_argument(
        name,
        type=parse_algorithm,
        metavar="NAME[:k=v,...]",
        help="catalogue algorithm with parameters, e.g. 'figure2:levels=1,c=2'",
        **spelling,
    )
    parser.add_argument(
        "--adversary",
        action="append",
        metavar="STRATEGY",
        help="adversary strategy (repeatable; default: random-state)",
    )
    parser.add_argument(
        "--faults",
        "--num-faults",
        dest="faults",
        action="append",
        type=parse_num_faults,
        metavar="N|auto",
        help="faults per run (repeatable; default: auto = the algorithm's f)",
    )
    parser.add_argument("--runs", type=int, default=10, help="runs per grid setting")
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    parser.add_argument("--max-rounds", type=int, default=1000, help="per-run round cap")
    parser.add_argument(
        "--stop-after-agreement",
        type=int,
        default=20,
        help="early-stop window; 0 disables early stopping",
    )
    parser.add_argument("--min-tail", type=int, default=2)
    parser.add_argument("--fault-pattern", choices=FAULT_PATTERNS, default="random")
    parser.add_argument(
        "--fault-schedule",
        type=parse_fault_schedule,
        metavar="NAME[:k=v,...]",
        help=(
            "named fault schedule, e.g. 'churn:start=5,down=6' (see `repro "
            "list fault-schedules`); it owns the faulty set, so the grid runs "
            "fault-free baselines (adversary 'none') and measures recovery"
        ),
    )
    parser.add_argument(
        "--loss",
        type=float,
        default=0.0,
        help=(
            "per-link message loss probability in [0, 1); a lost link "
            "re-delivers the sender's previous broadcast (broadcast model only)"
        ),
    )
    parser.add_argument(
        "--delay",
        type=int,
        default=0,
        help=(
            "maximum per-link message delay in rounds; each link delivers a "
            "uniformly random 0..DELAY-old broadcast (broadcast model only)"
        ),
    )
    _add_engine_argument(parser, "auto")
    parser.add_argument("--name", help="campaign name (default: the algorithm names)")


def compile_grid(args: argparse.Namespace) -> CampaignSpec:
    """Compile :func:`add_grid_arguments` flags through the Scenario builder.

    Names resolve against the catalogue, the model is inferred from the
    algorithms and a schedule pins the baseline to adversary ``none``,
    exactly as in the library API.
    """
    scenario = Scenario()
    for algorithm in args.algorithm:
        scenario = scenario.counter(algorithm.name, **dict(algorithm.params))
    if args.adversary:
        scenario = scenario.adversary(*args.adversary)
    if args.faults:
        scenario = scenario.faults(*args.faults)
    if args.fault_schedule:
        schedule_name, schedule_params = args.fault_schedule
        scenario = scenario.fault_schedule(schedule_name, **dict(schedule_params))
    if args.name is not None:
        scenario = scenario.named(args.name)
    return (
        scenario.runs(args.runs)
        .seed(args.seed)
        .max_rounds(args.max_rounds)
        .stop_after_agreement(args.stop_after_agreement)
        .min_tail(args.min_tail)
        .fault_pattern(args.fault_pattern)
        .loss(args.loss)
        .delay(args.delay)
        .engine(args.engine)
        .to_campaign_spec()
    )


# ---------------------------------------------------------------------- #
# Execution and summary flags
# ---------------------------------------------------------------------- #


def _add_execution_arguments(
    parser: argparse.ArgumentParser, *, store_required: bool
) -> None:
    """``--store``, ``--jobs``, ``--quiet`` and the observability flags."""
    parser.add_argument(
        "--store",
        required=store_required,
        help="JSONL result store (created if missing; completed runs are skipped)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (>1 enables the multiprocessing executor)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-run progress lines"
    )
    add_observability_arguments(parser)


def _add_summary_arguments(parser: argparse.ArgumentParser) -> None:
    """``--group-by`` and ``--markdown`` for the stabilisation summary table."""
    parser.add_argument(
        "--group-by",
        default="algorithm,adversary",
        help="comma-separated RunResult fields to group rows by",
    )
    parser.add_argument(
        "--markdown", action="store_true", help="emit the summary as Markdown"
    )


def _print_progress(done: int, total: int, result: RunResult) -> None:
    """One ``[done/total] run_id: status`` line per finished run."""
    status = "FAIL" if result.error else (
        f"stab@{result.stabilization_round}" if result.stabilized else "no-stab"
    )
    print(f"[{done}/{total}] {result.run_id}: {status}", flush=True)


def _execute(
    spec: CampaignSpec, args: argparse.Namespace, label: str
) -> CampaignReport:
    """Run ``spec`` under the execution flags and print the report."""
    store = CampaignStore(args.store) if args.store else None
    executor = default_executor(args.jobs, args.engine or spec.engine)
    with observation_from_args(args) as observer:
        report = run_campaign(
            spec,
            store=store,
            executor=executor,
            progress=None if args.quiet else _print_progress,
            observer=observer,
        )
    suffix = f" -> {store.path}" if store is not None else ""
    print(
        f"{label} '{spec.name}': {report.total} runs "
        f"({report.executed} executed, {report.skipped} resumed, "
        f"{report.failed} failed) in {report.elapsed:.2f}s{suffix}"
    )
    if report.fallback_reasons and not args.quiet:
        print("scalar fallbacks (see `repro list adversaries` for coverage):")
        for reason in report.fallback_reasons:
            print(f"  - {reason}")
    return report


def _print_summary(
    results: list[RunResult], args: argparse.Namespace, name: str
) -> None:
    table = summarize_results(results, group_by=args.group_by, name=name)
    print(table.to_markdown() if args.markdown else table.format_table())


# ---------------------------------------------------------------------- #
# Commands
# ---------------------------------------------------------------------- #


def register_run_command(subparsers) -> None:
    """Register ``repro run`` on the top-level subparser group."""
    run = subparsers.add_parser(
        "run",
        help="run one scenario (algorithms x adversaries x faults) and summarize it",
        description=(
            "Run one scenario grid: algorithms x adversaries x fault counts "
            "x runs, executed serially or over worker processes with "
            "bit-identical results, then print a stabilisation summary."
        ),
    )
    run.set_defaults(handler=_command_scenario)
    add_grid_arguments(run, positional_algorithm=True)
    _add_execution_arguments(run, store_required=False)
    _add_summary_arguments(run)


def register_commands(subparsers) -> None:
    """Register the campaign subcommands on the ``repro campaign`` group.

    Every subcommand sets a ``handler`` default consumed by :func:`dispatch`.
    """
    define = subparsers.add_parser(
        "define",
        help="write a campaign definition file from flags",
        description="Write a campaign definition file from the grid flags.",
    )
    define.set_defaults(handler=_command_define)
    add_grid_arguments(define)
    define.add_argument("--out", required=True, help="path of the definition file")

    for verb, description in (
        ("run", "execute a campaign definition (skips completed runs)"),
        ("resume", "alias of 'run': continue an interrupted campaign"),
    ):
        executor_parser = subparsers.add_parser(
            verb, help=description, description=description
        )
        executor_parser.set_defaults(handler=_command_run)
        executor_parser.add_argument("spec", help="campaign definition file (JSON)")
        _add_engine_argument(executor_parser, None)
        _add_execution_arguments(executor_parser, store_required=True)

    summarize = subparsers.add_parser(
        "summarize",
        help="stabilisation statistics from a result store",
        description="Stabilisation statistics from a result store.",
    )
    summarize.set_defaults(handler=_command_summarize)
    summarize.add_argument("store", help="JSONL result store")
    _add_summary_arguments(summarize)


def _command_scenario(args: argparse.Namespace) -> int:
    """``repro run``: compile the grid, execute it, print a summary."""
    group_by_fields(args.group_by)  # fail before any run executes
    spec = compile_grid(args)
    report = _execute(spec, args, "scenario")
    _print_summary(report.results, args, f"Scenario summary — {spec.name}")
    return 1 if report.failed else 0


def _command_define(args: argparse.Namespace) -> int:
    spec = compile_grid(args)
    runs = spec.expand()
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(spec.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {args.out}: campaign '{spec.name}' with {len(runs)} runs")
    return 0


def _command_run(args: argparse.Namespace) -> int:
    with open(args.spec, "r", encoding="utf-8") as handle:
        spec = CampaignSpec.from_dict(json.load(handle))
    return 1 if _execute(spec, args, "campaign").failed else 0


def _command_summarize(args: argparse.Namespace) -> int:
    group_by_fields(args.group_by)
    store = CampaignStore(args.store)
    results = list(store.latest_by_id().values())
    if store.corrupt_lines:
        print(
            f"warning: {store.path} contained {store.corrupt_lines} "
            "unparseable line(s); they are left out of the summary",
            file=sys.stderr,
        )
    if not results:
        print(f"no results in {store.path}")
        return 1
    _print_summary(results, args, f"Campaign summary — {store.path}")
    return 0


def dispatch(args: argparse.Namespace) -> int:
    """Invoke a parsed command's handler with uniform error reporting.

    Expected failures (bad names or values, malformed files, missing paths)
    become one-line ``error:`` diagnostics with exit code 2, not tracebacks.
    """
    try:
        return args.handler(args)
    except (ReproError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
