"""The unified ``repro`` command line — one front door for everything.

Installed as the ``repro`` console script and runnable as ``python -m
repro``.  Subcommands:

========== ==================================================================
``run``        run one scenario (algorithms x adversaries x faults grid)
               and print a stabilisation summary
``campaign``   ``define`` / ``run`` / ``resume`` / ``summarize`` — the
               campaign engine commands
``experiment`` regenerate a paper artefact: ``table1``, ``table2``,
               ``figure1``, ``figure2``, ``scaling``, ``pulling``,
               ``ablation``
``list``       discover algorithms, adversaries, fault schedules and
               experiments with one-line descriptions (the component
               catalogue of :mod:`repro.semantics`)
``verify``     exhaustively model-check a catalogue algorithm
               (Section 2 definition of a synchronous counter)
``lint``       determinism-aware static analysis (:mod:`repro.lint`):
               prove the invariants the parity harness only samples
========== ==================================================================

``run`` and ``campaign define`` share one flag table and one compiler
(:mod:`repro.campaigns.cli`), so the same grid flags describe the same
campaign on both.  All help and description strings are explicit
literals, so the CLI works under ``python -OO`` (docstrings stripped).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro._version import __version__
from repro.campaigns.cli import (
    dispatch,
    parse_algorithm,
    register_commands,
    register_run_command,
)
from repro.core.errors import ParameterError
from repro.experiments.catalog import experiment_catalog
from repro.lint.cli import register_lint_command
from repro.obs.cli import add_observability_arguments, observation_from_args

__all__ = ["main", "build_parser"]


# ---------------------------------------------------------------------- #
# Command handlers
# ---------------------------------------------------------------------- #


def _command_experiment(args: argparse.Namespace) -> int:
    """Run a catalogue experiment and print its tables.

    Observability flags work here without per-experiment wiring: the
    observer is installed as the process default for the duration of the
    command, and every campaign the experiment runs picks it up.
    """
    with observation_from_args(args):
        results = args.experiment.run(args)
    renderer = "to_markdown" if args.markdown else "format_table"
    print("\n\n".join(getattr(result, renderer)() for result in results))
    return 0


def _algorithm_detail(name: str) -> list[str]:
    """The ``list --verbose`` detail lines of one algorithm, from its spec."""
    from repro.semantics import algorithm_semantics, format_schema

    spec = algorithm_semantics(name)
    state = "flat integer states" if spec.flat_state else "boosted (structured) states"
    scalar = "deterministic" if spec.scalar_deterministic else "randomised"
    batch = "bit-identical" if spec.batch_deterministic else "statistically equivalent"
    lines = [
        f"params: {format_schema(spec.parameters)}",
        f"semantics: {state}; scalar {scalar}, batch {batch}",
    ]
    if spec.rng_note:
        lines.append(f"rng: {spec.rng_note}")
    lines.append(f"source: {spec.source}")
    return lines


def _adversary_detail(name: str) -> list[str]:
    """The ``list --verbose`` detail lines of one strategy, from its spec."""
    from repro.semantics import adversary_semantics, format_schema

    spec = adversary_semantics(name)
    scalar = "deterministic" if spec.scalar_deterministic else "randomised"
    lines = [
        f"params: {format_schema(spec.parameters)}",
        f"semantics: scalar {scalar}; batch {spec.coverage_note()}",
        f"source: {spec.source}",
    ]
    return lines


def _fault_schedule_detail(name: str) -> list[str]:
    """The ``list --verbose`` detail lines of one fault schedule, from its spec."""
    from repro.semantics import fault_schedule_semantics, format_schema

    spec = fault_schedule_semantics(name)
    scalar = "deterministic" if spec.scalar_deterministic else "randomised"
    engine = (
        "batch-covered"
        if spec.batch_covered
        else "scalar engine only (named fallback under engine='auto')"
    )
    return [
        f"params: {format_schema(spec.parameters)}",
        f"semantics: scalar {scalar}; {engine}",
        f"source: {spec.source}",
    ]


def _command_list(args: argparse.Namespace) -> int:
    """List algorithms, adversaries and experiments with descriptions."""
    from importlib.util import find_spec

    from repro.semantics import ADVERSARY_SEMANTICS, ALGORITHM_SEMANTICS

    sections: list[str] = []
    verbose = getattr(args, "verbose", False)
    # Batch notes are blank in NumPy-less environments, where no vectorised
    # engine exists to promise anything.
    have_numpy = find_spec("numpy") is not None

    def format_rows(rows: list[tuple[str, str, list[str]]]) -> str:
        width = max(len(name) for name, _, _ in rows)
        lines = []
        for name, text, details in rows:
            lines.append(f"  {name.ljust(width)}  {text}")
            for detail in details:
                lines.append(f"  {' ' * width}    {detail}")
        return "\n".join(lines)

    def batch_suffix(spec) -> str:
        return f" [batch: {spec.coverage_note()}]" if have_numpy else ""

    if args.kind in ("algorithms", "all"):
        rows = [
            (
                spec.name,
                f"[{spec.model}] {spec.description}" + batch_suffix(spec),
                _algorithm_detail(spec.name) if verbose else [],
            )
            for _, spec in sorted(ALGORITHM_SEMANTICS.items())
            if args.model is None or spec.model == args.model
        ]
        if rows:
            sections.append("Algorithms:\n" + format_rows(rows))
    if args.kind in ("adversaries", "all"):
        rows = [
            (
                spec.name,
                spec.description + batch_suffix(spec),
                _adversary_detail(spec.name) if verbose else [],
            )
            for _, spec in sorted(ADVERSARY_SEMANTICS.items())
        ]
        sections.append("Adversaries:\n" + format_rows(rows))
    if args.kind in ("fault-schedules", "all"):
        from repro.semantics import fault_schedule_descriptions

        rows = [
            (
                name,
                description,
                _fault_schedule_detail(name) if verbose else [],
            )
            for name, description in fault_schedule_descriptions().items()
        ]
        sections.append("Fault schedules:\n" + format_rows(rows))
    if args.kind in ("experiments", "all"):
        rows = [
            (experiment.name, experiment.description, [])
            for experiment in experiment_catalog().values()
        ]
        sections.append("Experiments:\n" + format_rows(rows))
    if not sections:
        print("nothing to list (no component matches the filters)")
        return 1
    print("\n\n".join(sections))
    return 0


def _command_verify(args: argparse.Namespace) -> int:
    """Exhaustively verify a catalogue algorithm as a synchronous counter."""
    from repro.semantics import algorithm_semantics, build_algorithm
    from repro.verification.checker import verify_counter

    spec = algorithm_semantics(args.algorithm.name)
    if spec.model != "broadcast":
        raise ParameterError(
            f"verify needs a broadcast-model algorithm with an enumerable "
            f"state space; {spec.name!r} is a {spec.model}-model "
            "algorithm"
        )
    algorithm = build_algorithm(args.algorithm.name, **dict(args.algorithm.params))
    report = verify_counter(
        algorithm,
        max_faults=args.max_faults,
        max_configurations=args.max_configurations,
    )
    print(
        f"verify {report.algorithm_name}: n={report.n} f<={report.f} c={report.c}"
    )
    for pattern in report.patterns:
        faulty = ",".join(str(node) for node in sorted(pattern.faulty)) or "-"
        outcome = (
            f"stabilizes in <= {pattern.stabilization_time} rounds"
            if pattern.stabilizes
            else f"FAILS (counterexample: {pattern.counterexample})"
        )
        print(
            f"  F={{{faulty}}}: {outcome} "
            f"[good {pattern.good_configurations}/{pattern.total_configurations}]"
        )
    if report.is_synchronous_counter:
        print(
            f"VERIFIED: synchronous {report.c}-counter, exact worst-case "
            f"stabilisation time {report.stabilization_time} rounds"
        )
        return 0
    print(f"NOT VERIFIED: {len(report.failing_patterns())} fault pattern(s) fail")
    return 1


# ---------------------------------------------------------------------- #
# Parser
# ---------------------------------------------------------------------- #


def build_parser() -> argparse.ArgumentParser:
    """The unified ``repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Self-stabilising Byzantine synchronous counting "
            "(Lenzen, Rybicki, Suomela — PODC 2015): scenarios, campaigns, "
            "experiments and verification behind one command."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    register_run_command(subparsers)

    campaign = subparsers.add_parser(
        "campaign",
        help="define, run, resume and summarize campaign definition files",
        description=(
            "The campaign engine: declarative JSON grids, resumable JSONL "
            "stores, serial or multiprocessing execution."
        ),
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)
    register_commands(campaign_sub)

    experiment = subparsers.add_parser(
        "experiment",
        help="regenerate a table/figure/claim of the paper",
        description="Regenerate one experiment of the paper (E1-E11).",
    )
    experiment_sub = experiment.add_subparsers(dest="experiment_name", required=True)
    for entry in experiment_catalog().values():
        experiment_parser = experiment_sub.add_parser(
            entry.name, help=entry.description, description=entry.description
        )
        for option in entry.options:
            option.add_to(experiment_parser)
        experiment_parser.add_argument(
            "--markdown",
            action="store_true",
            help="emit the tables as Markdown instead of aligned text",
        )
        add_observability_arguments(experiment_parser)
        experiment_parser.set_defaults(handler=_command_experiment, experiment=entry)

    list_parser = subparsers.add_parser(
        "list",
        help=(
            "list algorithms, adversaries, fault schedules and experiments "
            "with descriptions"
        ),
        description=(
            "Discovery: every registered algorithm, adversary strategy and "
            "fault-schedule preset (the semantics catalogue) plus the "
            "experiment catalogue."
        ),
    )
    list_parser.set_defaults(handler=_command_list)
    list_parser.add_argument(
        "kind",
        nargs="?",
        choices=("algorithms", "adversaries", "fault-schedules", "experiments", "all"),
        default="all",
        help="restrict the listing to one kind (default: all)",
    )
    list_parser.add_argument(
        "--model",
        choices=("broadcast", "pulling"),
        help="restrict algorithms to one communication model",
    )
    list_parser.add_argument(
        "--verbose",
        action="store_true",
        help=(
            "show the spec-derived details per component: parameter schema "
            "with defaults, state space, determinism classes and source"
        ),
    )

    verify = subparsers.add_parser(
        "verify",
        help="exhaustively model-check a catalogue algorithm",
        description=(
            "Exhaustively verify that an algorithm is a synchronous counter "
            "(Section 2): check every execution from every configuration "
            "under every fault pattern, and report the exact worst-case "
            "stabilisation time.  Feasible for small instances only."
        ),
    )
    verify.set_defaults(handler=_command_verify)
    verify.add_argument(
        "algorithm",
        type=parse_algorithm,
        metavar="NAME[:k=v,...]",
        help="catalogue algorithm with parameters, e.g. 'trivial:c=3'",
    )
    verify.add_argument(
        "--max-faults",
        type=int,
        default=None,
        help="check all faulty sets up to this size (default: the algorithm's f)",
    )
    verify.add_argument(
        "--max-configurations",
        type=int,
        default=200_000,
        help="safety cap on the configuration-space size per fault pattern",
    )

    register_lint_command(subparsers)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``python -m repro`` and the ``repro`` console script."""
    return dispatch(build_parser().parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
