"""Compact per-run results and the JSONL campaign store.

A full :class:`~repro.network.trace.ExecutionTrace` is far too heavy to keep
for thousands of runs, so every executed run is reduced to a
:class:`RunResult` — the stabilisation statistics the experiments actually
consume (stabilisation round, agreement fraction, message counts) plus enough
identifying information to make the record self-describing.

:class:`CampaignStore` persists results as JSON Lines: one canonical-JSON
record per line, appended and flushed as runs complete.  A campaign holds one
append handle for all its writes (:meth:`CampaignStore.writing`) and flushes
after every record, so each line reaches the file whole.  Because every
record carries its ``run_id``, an interrupted campaign resumes by skipping
the runs already present in the store.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, fields
from pathlib import Path
from typing import IO, TYPE_CHECKING, Any, Iterable, Iterator, Mapping, Sequence

from repro.analysis.metrics import (
    TrialMetrics,
    post_agreement_failure_rate_from_values,
    pull_statistics,
    trial_metrics_from_values,
)
from repro.core.errors import ParameterError
from repro.network.stabilization import recovery_from_values
from repro.network.trace import ExecutionTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.campaigns.spec import RunSpec
    from repro.core.algorithm import SynchronousCountingAlgorithm
    from repro.experiments.common import ExperimentResult

__all__ = [
    "RunResult",
    "CampaignStore",
    "reduce_run",
    "reduce_trace",
    "reduced_facts",
    "summarize_results",
    "group_by_fields",
]


_REQUIRED = object()

#: The one canonical JSON form of a stored record: sorted keys, no whitespace.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _typed(
    data: Mapping[str, Any], name: str, kind: type, default: Any = _REQUIRED
) -> Any:
    """One stored field of a :class:`RunResult`, checked against its type.

    ``None`` is accepted exactly for the fields whose default is ``None``;
    integers are accepted (and widened) where a float is expected, but a
    boolean never passes for a number (``type``, not ``isinstance``).
    """
    if name not in data:
        if default is _REQUIRED:
            raise KeyError(name)
        return default
    value = data[name]
    if value is None and default is None:
        return None
    if kind is float and type(value) is int:
        value = float(value)
    if type(value) is not kind:
        raise TypeError(f"field {name!r} must be {kind.__name__}, got {value!r}")
    return value


@dataclass(frozen=True)
class RunResult:
    """The compact, JSON-serialisable outcome of one campaign run.

    Attributes
    ----------
    run_id:
        Stable identifier of the run inside its campaign (the resume key).
    algorithm / adversary:
        Human-readable labels of the algorithm and adversary strategy.
    n, f, c:
        Parameters of the executed algorithm.
    faulty:
        The Byzantine node set of the run.
    sim_seed:
        The simulator seed (results are reproducible from the run spec).
    rounds_simulated:
        Number of rounds executed before the trace ended.
    stabilized / stabilization_round / within_bound / agreement_fraction:
        The stabilisation statistics of :class:`~repro.analysis.metrics.TrialMetrics`.
    stopped_early:
        Whether the simulator stopped on the agreement window.
    messages_sent:
        Total messages delivered to correct receivers: ``rounds × n ×
        |correct|`` in the broadcast model, the total number of pulls issued
        by correct nodes in the pulling model.
    model:
        The communication model the run executed in (``"broadcast"`` /
        ``"pulling"``).
    max_pulls / mean_pulls / max_bits:
        Pulling-model message complexity: the per-round maximum/mean number
        of pulls a correct node issued and the worst-case per-round bit count
        (the Theorem 4 / Corollary 4 quantities).  ``None`` for broadcast
        runs.
    post_agreement_failure_rate:
        Fraction of rounds after the first agreement in which agreement
        broke — the empirical per-round failure probability of a sampled
        counter.  ``None`` for broadcast runs.
    last_perturbation_round / recovered / recovery_round / re_stabilization_time:
        Fault-injection recovery metrics
        (:func:`repro.network.stabilization.recovery_round`): the round of
        the last fault-schedule transition, whether the correct nodes
        re-stabilised after it, the absolute round they did, and the
        re-stabilisation time measured *from* the perturbation.  All
        ``None`` for runs without an injected perturbation (loss/delay are
        continuous noise, not discrete perturbations, so they do not set
        these).
    rng:
        ``None`` for runs whose randomness came from the scalar engine's
        ``random.Random`` streams (including every deterministic batch
        execution, which is bit-identical to them); the
        :data:`~repro.network.batch.BATCH_RNG_NOTE` marker for randomised
        runs executed by the NumPy batch engine, so a result store mixing
        engines stays self-describing.
    error:
        ``None`` for successful runs; otherwise ``"ExcType: message"`` — the
        executors never let one failed run abort a campaign.
    """

    run_id: str
    algorithm: str
    adversary: str
    n: int
    f: int
    c: int
    faulty: tuple[int, ...]
    sim_seed: int
    rounds_simulated: int
    stabilized: bool
    stabilization_round: int | None
    within_bound: bool | None
    agreement_fraction: float
    stopped_early: bool
    messages_sent: int
    error: str | None = None
    model: str = "broadcast"
    max_pulls: int | None = None
    mean_pulls: float | None = None
    max_bits: int | None = None
    post_agreement_failure_rate: float | None = None
    last_perturbation_round: int | None = None
    recovered: bool | None = None
    recovery_round: int | None = None
    re_stabilization_time: int | None = None
    rng: str | None = None

    def to_dict(self) -> dict[str, Any]:
        """Plain-dictionary form (tuples become lists).

        Every field holds a scalar or the ``faulty`` tuple, so reading the
        attributes by name gives what :func:`dataclasses.asdict` would,
        without its recursive copy.
        """
        data = {name: getattr(self, name) for name in _FIELD_NAMES}
        data["faulty"] = list(self.faulty)
        return data

    def to_json(self) -> str:
        """Canonical single-line JSON (sorted keys, no whitespace)."""
        return _CANONICAL.encode(self.to_dict())

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunResult":
        """Inverse of :meth:`to_dict`, type-checking every field.

        A mistyped field (``"stabilization_round": "x"``, a boolean where a
        count belongs, ...) raises :class:`TypeError`, so the store counts
        the line as corrupt and resume re-runs it instead of loading a
        record that later breaks the summaries.  Absent fields other than
        the run identity take their defaults.
        """
        faulty = _typed(data, "faulty", list, [])
        if any(type(node) is not int for node in faulty):
            raise TypeError(f"field 'faulty' must list node ids, got {faulty!r}")
        return cls(
            run_id=_typed(data, "run_id", str),
            algorithm=_typed(data, "algorithm", str),
            adversary=_typed(data, "adversary", str),
            n=_typed(data, "n", int),
            f=_typed(data, "f", int),
            c=_typed(data, "c", int),
            faulty=tuple(faulty),
            sim_seed=_typed(data, "sim_seed", int, 0),
            rounds_simulated=_typed(data, "rounds_simulated", int, 0),
            stabilized=_typed(data, "stabilized", bool, False),
            stabilization_round=_typed(data, "stabilization_round", int, None),
            within_bound=_typed(data, "within_bound", bool, None),
            agreement_fraction=_typed(data, "agreement_fraction", float, 0.0),
            stopped_early=_typed(data, "stopped_early", bool, False),
            messages_sent=_typed(data, "messages_sent", int, 0),
            error=_typed(data, "error", str, None),
            model=_typed(data, "model", str, "broadcast"),
            max_pulls=_typed(data, "max_pulls", int, None),
            mean_pulls=_typed(data, "mean_pulls", float, None),
            max_bits=_typed(data, "max_bits", int, None),
            post_agreement_failure_rate=_typed(
                data, "post_agreement_failure_rate", float, None
            ),
            last_perturbation_round=_typed(data, "last_perturbation_round", int, None),
            recovered=_typed(data, "recovered", bool, None),
            recovery_round=_typed(data, "recovery_round", int, None),
            re_stabilization_time=_typed(data, "re_stabilization_time", int, None),
            rng=_typed(data, "rng", str, None),
        )

    def to_trial_metrics(self) -> TrialMetrics:
        """Convert to the :class:`TrialMetrics` shape the experiments consume."""
        return TrialMetrics(
            stabilized=self.stabilized,
            stabilization_round=self.stabilization_round,
            rounds_simulated=self.rounds_simulated,
            within_bound=self.within_bound,
            agreement_fraction=self.agreement_fraction,
            faulty=self.faulty,
        )


#: Field names of :class:`RunResult`, read once for :meth:`RunResult.to_dict`.
_FIELD_NAMES: tuple[str, ...] = tuple(field.name for field in fields(RunResult))


def reduced_facts(algorithm: Any) -> tuple[Any, ...]:
    """What :func:`reduce_run` reads from an algorithm instance.

    Runs whose algorithm instances agree on these facts reduce identically
    from identical agreed values, which is what lets one batch group carry
    several campaign cells.
    """
    return algorithm.n, algorithm.f, algorithm.c, algorithm.stabilization_bound()


def reduce_run(
    spec: "RunSpec",
    algorithm: Any,
    agreed: Sequence[int | None],
    *,
    faulty: tuple[int, ...],
    stopped_early: bool,
    model: str,
    messages_sent: int,
    max_pulls: int | None = None,
    mean_pulls: float | None = None,
    max_bits: int | None = None,
    last_perturbation_round: int | None = None,
    rng: str | None = None,
) -> RunResult:
    """Reduce one run's per-round agreed values to its campaign result.

    The one reduction behind both engines: :func:`reduce_trace` (scalar
    traces) and :func:`repro.campaigns.batching.reduce_summary` (batch
    summaries) only extract ``agreed`` — the common correct output per round,
    disagreement as ``None`` or any negative integer — and the run facts
    below.  Everything derived from the values is computed here: the
    stabilisation suffix, the within-bound test, the agreement fraction, the
    pulling-model post-agreement failure rate and, for perturbed runs, the
    recovery metrics.
    """
    metrics = trial_metrics_from_values(
        agreed,
        algorithm.c,
        bound=algorithm.stabilization_bound(),
        min_tail=spec.min_tail,
        faulty=faulty,
    )
    recovered: bool | None = None
    recovered_round: int | None = None
    re_stabilization: int | None = None
    if last_perturbation_round is not None:
        recovery = recovery_from_values(
            agreed,
            algorithm.c,
            min_tail=spec.min_tail,
            last_perturbation_round=last_perturbation_round,
        )
        last_perturbation_round = recovery.last_perturbation_round
        recovered = recovery.recovered
        recovered_round = recovery.recovery_round
        re_stabilization = recovery.re_stabilization_time
    failure_rate: float | None = None
    if model == "pulling":
        failure_rate = post_agreement_failure_rate_from_values(agreed)
    return RunResult(
        run_id=spec.run_id,
        algorithm=spec.algorithm_label(),
        adversary=spec.adversary_label(),
        n=algorithm.n,
        f=algorithm.f,
        c=algorithm.c,
        faulty=faulty,
        sim_seed=spec.sim_seed,
        rounds_simulated=metrics.rounds_simulated,
        stabilized=metrics.stabilized,
        stabilization_round=metrics.stabilization_round,
        within_bound=metrics.within_bound,
        agreement_fraction=metrics.agreement_fraction,
        stopped_early=stopped_early,
        messages_sent=messages_sent,
        model=model,
        max_pulls=max_pulls,
        mean_pulls=mean_pulls,
        max_bits=max_bits,
        post_agreement_failure_rate=failure_rate,
        last_perturbation_round=last_perturbation_round,
        recovered=recovered,
        recovery_round=recovered_round,
        re_stabilization_time=re_stabilization,
        rng=rng,
    )


def reduce_trace(
    spec: "RunSpec",
    algorithm: Any,
    trace: ExecutionTrace,
) -> RunResult:
    """Reduce a recorded execution to its compact campaign result.

    The scalar engine's adapter onto :func:`reduce_run`.  Pulling-model
    traces (identified by the ``model: "pulling"`` trace metadata)
    additionally yield the Theorem 4 message-complexity statistics
    (``max_pulls`` / ``mean_pulls`` / ``max_bits``), and their
    ``messages_sent`` counts actual pulls instead of ``rounds × n ×
    correct`` broadcasts.
    """
    correct = algorithm.n - len(trace.faulty)
    model = trace.metadata.get("model", "broadcast")
    pulls: dict[str, Any] = {}
    if model == "pulling":
        pulls = pull_statistics(trace)
        # mean_pulls per round is total/correct, so this recovers the total
        # number of pulls issued by correct nodes over the whole run.
        messages_sent = int(
            round(
                sum(
                    record.metadata.get("mean_pulls", 0.0) * correct
                    for record in trace.rounds
                )
            )
        )
    else:
        messages_sent = trace.num_rounds * algorithm.n * correct
    return reduce_run(
        spec,
        algorithm,
        trace.agreed_values(),
        faulty=tuple(sorted(trace.faulty)),
        stopped_early=bool(trace.metadata.get("stopped_early", False)),
        model=model,
        messages_sent=messages_sent,
        last_perturbation_round=trace.metadata.get("last_perturbation_round"),
        rng=trace.metadata.get("rng"),
        **pulls,
    )


class CampaignStore:
    """Append-only JSONL persistence for campaign results.

    One :class:`RunResult` per line.  Each append writes one whole line and
    flushes it, so an interrupted campaign loses at most the in-flight run;
    on resume, :meth:`completed_ids` tells the runner which runs to skip.
    A campaign holds one append handle for all its records
    (:meth:`writing`).  Malformed lines (for example a partial line from a
    hard kill) are skipped — the corresponding runs simply execute again —
    but never silently: :attr:`corrupt_lines` counts them so the runner can
    warn on resume.
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self._path = Path(path)
        #: Number of unparseable lines encountered by the most recent full
        #: read of the store (0 before any read).
        self.corrupt_lines = 0
        self._handle: IO[str] | None = None

    @property
    def path(self) -> Path:
        """Location of the JSONL file."""
        return self._path

    @contextmanager
    def writing(self) -> Iterator[None]:
        """Hold one append handle open for every :meth:`append` in the scope.

        Opening the scope creates the file and its parents and repairs a
        partial last line; closing it closes the handle, also when the scope
        exits by an exception.
        """
        self._path.parent.mkdir(parents=True, exist_ok=True)
        # A hard kill can leave the file ending in a partial line; appending
        # directly would corrupt the next record too.  Terminate the stray
        # line first so only the partial record is lost (and re-run).
        needs_newline = False
        if self._path.exists() and self._path.stat().st_size > 0:
            with self._path.open("rb") as tail:
                tail.seek(-1, os.SEEK_END)
                needs_newline = tail.read(1) != b"\n"
        with self._path.open("a", encoding="utf-8") as handle:
            if needs_newline:
                handle.write("\n")
                handle.flush()
            self._handle = handle
            try:
                yield
            finally:
                self._handle = None

    def append(self, result: RunResult) -> None:
        """Persist one result as one whole, flushed line.

        Outside a :meth:`writing` scope the append opens a one-record scope
        of its own.
        """
        if self._handle is None:
            with self.writing():
                self.append(result)
            return
        self._handle.write(result.to_json() + "\n")
        self._handle.flush()

    def __iter__(self) -> Iterator[RunResult]:
        if not self._path.exists():
            self.corrupt_lines = 0
            return
        corrupt = 0
        with self._path.open("r", encoding="utf-8") as handle:
            try:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        data = json.loads(line)
                        result = RunResult.from_dict(data)
                    except (ValueError, KeyError, TypeError):
                        corrupt += 1
                        continue
                    yield result
            finally:
                # Publish the count even when the consumer stops early, so a
                # partial read never reports a stale total from a prior pass.
                self.corrupt_lines = corrupt

    def load(self) -> list[RunResult]:
        """All parseable results, in file order."""
        return list(self)

    def latest_by_id(self) -> dict[str, RunResult]:
        """The most recent result per run id (later lines supersede earlier)."""
        latest: dict[str, RunResult] = {}
        for result in self:
            latest[result.run_id] = result
        return latest

    def completed_ids(self) -> set[str]:
        """Run ids that finished successfully (errored runs are retried)."""
        return {
            run_id
            for run_id, result in self.latest_by_id().items()
            if result.error is None
        }

    def __len__(self) -> int:
        return sum(1 for _ in self)


def group_by_fields(columns: str | Sequence[str]) -> tuple[str, ...]:
    """The :class:`RunResult` fields a summary groups by, checked by name.

    Takes a comma-separated string (the ``--group-by`` flag) or a sequence
    of names, and raises :class:`~repro.core.errors.ParameterError` naming
    the valid fields when one of them is not a :class:`RunResult` field.
    """
    if isinstance(columns, str):
        columns = columns.split(",")
    names = tuple(column.strip() for column in columns if column.strip())
    unknown = [name for name in names if name not in _FIELD_NAMES]
    if unknown:
        raise ParameterError(
            f"unknown group-by field(s) {', '.join(unknown)}; "
            f"valid fields: {', '.join(sorted(_FIELD_NAMES))}"
        )
    return names


def summarize_results(
    results: Iterable[RunResult],
    group_by: Sequence[str] = ("algorithm", "adversary"),
    name: str = "Campaign summary",
) -> "ExperimentResult":
    """Aggregate run results into a stabilisation-statistics table.

    Groups by the given :class:`RunResult` attributes (default: algorithm and
    adversary) and reports, per group, how many runs stabilised and the
    distribution of stabilisation rounds.  An unknown field raises
    :class:`~repro.core.errors.ParameterError` (see :func:`group_by_fields`).
    """
    # Imported lazily: experiments.common itself builds on the campaign
    # engine, so a module-level import would be circular.
    from repro.analysis.stats import summarize
    from repro.experiments.common import ExperimentResult

    group_by = group_by_fields(group_by)
    groups: dict[tuple, list[RunResult]] = {}
    for result in results:
        key = tuple(getattr(result, attribute) for attribute in group_by)
        groups.setdefault(key, []).append(result)

    table = ExperimentResult(name=name)
    for key in sorted(groups, key=str):
        bucket = groups[key]
        failed = [result for result in bucket if result.error is not None]
        ok = [result for result in bucket if result.error is None]
        stabilized = [result for result in ok if result.stabilized]
        rounds = [
            result.stabilization_round
            for result in stabilized
            if result.stabilization_round is not None
        ]
        stats = summarize(rounds) if rounds else None
        within = [r.within_bound for r in ok if r.within_bound is not None]
        row: dict[str, Any] = dict(zip(group_by, key))
        row.update(
            runs=len(bucket),
            failed=len(failed),
            stabilized=len(stabilized),
            mean_round="-" if stats is None else round(stats.mean, 1),
            median_round="-" if stats is None else stats.median,
            p90_round="-" if stats is None else stats.p90,
            max_round="-" if stats is None else stats.maximum,
            within_bound=all(within) if within else True,
            mean_messages=(
                round(sum(r.messages_sent for r in ok) / len(ok), 1) if ok else 0
            ),
        )
        perturbed = [r for r in ok if r.last_perturbation_round is not None]
        if perturbed:
            # Fault-injection groups: how many runs re-stabilised after the
            # last perturbation, and how long re-convergence took.
            recovered = [r for r in perturbed if r.recovered]
            times = [
                r.re_stabilization_time
                for r in recovered
                if r.re_stabilization_time is not None
            ]
            row.update(
                perturbed=len(perturbed),
                recovered=len(recovered),
                mean_recovery=(
                    round(sum(times) / len(times), 1) if times else "-"
                ),
                max_recovery=max(times) if times else "-",
            )
        pulls = [r.max_pulls for r in ok if r.max_pulls is not None]
        if pulls:
            # Pulling-model groups: the Theorem 4 / Corollary 4 quantities.
            bits = [r.max_bits for r in ok if r.max_bits is not None]
            failure_rates = [
                r.post_agreement_failure_rate
                for r in ok
                if r.post_agreement_failure_rate is not None
            ]
            row.update(
                max_pulls=max(pulls),
                max_bits=max(bits) if bits else 0,
                failure_rate=(
                    round(sum(failure_rates) / len(failure_rates), 4)
                    if failure_rates
                    else "-"
                ),
            )
        table.add_row(**row)
    return table
