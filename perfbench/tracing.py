"""Spans recorded from outside the program, and the per-layer numbers.

The traced pass wraps public callables of ``repro`` where their callers look
them up (module globals and class attributes), records one span per call
in memory, and restores every original afterwards.  Nothing inside the
program changes: the wrappers only read arguments and results.

A span has a name, a start, an end, a parent (the span open when it began)
and a pass id.  A layer's self time is its spans' duration minus the time
their child spans cover.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

#: Direct sites: (span name, "module" or "module:Class", attribute).
#: Module globals are wrapped in the module that *calls* them, because that
#: is where the caller looks the name up.
SITES: tuple[tuple[str, str, str], ...] = (
    ("runner", "repro.campaigns.runner", "run_campaign"),
    ("spec.expand", "repro.campaigns.spec:CampaignSpec", "expand"),
    ("batching.executor", "repro.campaigns.batching:BatchExecutor", "run"),
    ("batching.kernel_build", "repro.campaigns.batching", "build_batch_kernel"),
    ("batching.reduce_summary", "repro.campaigns.batching", "reduce_summary"),
    ("batch.summaries", "repro.campaigns.batching", "run_batch_summaries"),
    ("adversary.build", "repro.network.batch", "build_adversary"),
    ("engine.initial_states", "repro.network.batch", "resolve_initial_states"),
    ("engine.initial_states", "repro.network.engine", "resolve_initial_states"),
    ("engine.run", "repro.network.simulator", "run_engine"),
    ("simulator.round", "repro.network.simulator", "run_round"),
    ("faults.step", "repro.faults.runtime:PerturbationRuntime", "step"),
    ("executor.execute_run", "repro.campaigns.batching", "execute_run"),
    ("executor.execute_run", "repro.campaigns.executor", "execute_run"),
    ("results.reduce_trace", "repro.campaigns.executor", "reduce_trace"),
    ("store.append", "repro.campaigns.results:CampaignStore", "append"),
    ("store.load", "repro.campaigns.results:CampaignStore", "load"),
    ("results.summarize", "repro.campaigns.results", "summarize_results"),
)

#: Sites that only open a span when called directly under another span:
#: ``AlgorithmSpec.build`` is kernel-build work inside the batch executor,
#: but part of expansion or of one scalar run elsewhere.
NESTED_SITES: tuple[tuple[str, str, str, str], ...] = (
    ("batching.kernel_build", "repro.campaigns.spec:AlgorithmSpec", "build",
     "batching.executor"),
)

#: Class trees: every class below the root that defines the method itself
#: gets a wrapper (inherited definitions are reached through their owner).
TREE_SITES: tuple[tuple[str, str, str], ...] = (
    ("kernels.step", "repro.network.batch:BatchKernel", "step"),
    ("kernels.outputs", "repro.network.batch:BatchKernel", "outputs"),
    ("batch.encode", "repro.network.batch:BatchKernel", "encode"),
    ("adversary.forge", "repro.network.batch:AdversaryBatchKernel", "forge"),
    ("adversary.begin_round", "repro.network.batch:AdversaryBatchKernel",
     "begin_round"),
    ("core.transition", "repro.core.algorithm:SynchronousCountingAlgorithm",
     "transition"),
)

#: Imported before the class trees are walked: it imports every broadcast
#: kernel and every broadcast algorithm class the workloads run.
TREE_MODULES = ("repro.counters.kernels",)

#: Span name -> the per-layer self-time metric its self time lands in.
#: Every span name has exactly one, so the self-time metrics partition the
#: time the spans cover.
SELF_METRICS: dict[str, str] = {
    "runner": "runner.self_s",
    "spec.expand": "spec.expand_s",
    "batching.executor": "batching.self_s",
    "batching.kernel_build": "batching.kernel_build_s",
    "batching.reduce_summary": "batching.reduce_summary_s",
    "batch.summaries": "batch.loop_self_s",
    "batch.encode": "batch.encode_s",
    "adversary.build": "adversary.build_s",
    "adversary.forge": "adversary.forge_s",
    "adversary.begin_round": "adversary.begin_round_s",
    "engine.initial_states": "engine.initial_states_s",
    "engine.run": "engine.run_s",
    "kernels.step": "kernels.step_s",
    "kernels.outputs": "kernels.outputs_s",
    "core.transition": "core.transition_s",
    "simulator.round": "simulator.round_self_s",
    "faults.step": "faults.step_self_s",
    "executor.execute_run": "executor.execute_run_s",
    "results.reduce_trace": "results.reduce_trace_s",
    "store.append": "store.append_s",
    "store.load": "store.load_s",
    "results.summarize": "results.summarize_s",
}

#: Span name -> call-count metric.
CALL_METRICS: dict[str, str] = {
    "adversary.build": "adversary.build_calls",
    "engine.initial_states": "engine.initial_states_calls",
    "core.transition": "core.transition_calls",
    "kernels.step": "batch.steps",
}


def _resolve(target: str) -> Any:
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def _subclasses(root: type) -> Iterator[type]:
    seen: set[type] = set()
    stack = [root]
    while stack:
        cls = stack.pop()
        if cls in seen:
            continue
        seen.add(cls)
        yield cls
        stack.extend(cls.__subclasses__())


class Tracer:
    """In-memory span store: parallel arrays, one entry per call."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.pass_id = array("i")
        #: Live batch width of each ``kernels.step`` span (0 elsewhere).
        self.width = array("q")
        self._stack: list[int] = []
        self.current_pass = 0

    def _name(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        index = len(self.start)
        self.name_id.append(self._name(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.pass_id.append(self.current_pass)
        self.width.append(0)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(time.perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter()
        self._stack.pop()

    def current(self) -> str | None:
        """Name of the innermost open span."""
        if not self._stack:
            return None
        return self.names[self.name_id[self._stack[-1]]]

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self) -> dict[str, np.ndarray]:
        """The spans as NumPy arrays (the form they are written out in)."""
        return {
            "names": np.array(self.names, dtype=str),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "pass_id": np.frombuffer(self.pass_id, dtype=np.int32).copy(),
            "width": np.frombuffer(self.width, dtype=np.int64).copy(),
        }

    def write(self, path: Path, seed: int) -> None:
        """Write every span, and the workload seed, to ``path`` (``.npz``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, seed=np.array(seed), **self.arrays())


def _span_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    def traced(*args: Any, **kwargs: Any) -> Any:
        index = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)

    return traced


def _step_wrapper(tracer: Tracer, name: str, fn: Callable) -> Callable:
    """Like :func:`_span_wrapper`, also recording the live batch width."""

    def traced(*args: Any, **kwargs: Any) -> Any:
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        states = result[0] if isinstance(result, tuple) else result
        tracer.width[index] = len(states)
        return result

    return traced


def _nested_wrapper(tracer: Tracer, name: str, fn: Callable, under: str) -> Callable:
    """Opens a span only when the innermost open span is ``under``."""
    traced = _span_wrapper(tracer, name, fn)

    def nested(*args: Any, **kwargs: Any) -> Any:
        if tracer.current() == under:
            return traced(*args, **kwargs)
        return fn(*args, **kwargs)

    return nested


def _targets() -> Iterator[tuple[str, Any, str, Callable, str | None]]:
    """``(span, owner, attribute, function, under)`` for every wrapped callable."""
    for module_name in TREE_MODULES:
        importlib.import_module(module_name)
    for name, target, attribute in SITES:
        owner = _resolve(target)
        yield name, owner, attribute, vars(owner)[attribute], None
    for name, target, attribute, under in NESTED_SITES:
        owner = _resolve(target)
        yield name, owner, attribute, vars(owner)[attribute], under
    for name, root, attribute in TREE_SITES:
        for cls in _subclasses(_resolve(root)):
            fn = vars(cls).get(attribute)
            if inspect.isfunction(fn) and not getattr(fn, "__isabstractmethod__", False):
                yield name, cls, attribute, fn, None


class Wrappers:
    """Installs the span wrappers and restores every original afterwards."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._originals: list[tuple[Any, str, Callable]] = []

    def __enter__(self) -> "Wrappers":
        for name, owner, attribute, fn, under in list(_targets()):
            if under is not None:
                wrapper = _nested_wrapper(self.tracer, name, fn, under)
            elif name == "kernels.step":
                wrapper = _step_wrapper(self.tracer, name, fn)
            else:
                wrapper = _span_wrapper(self.tracer, name, fn)
            self._originals.append((owner, attribute, fn))
            setattr(owner, attribute, wrapper)
        return self

    def __exit__(self, *exc_info: object) -> None:
        for owner, attribute, fn in reversed(self._originals):
            setattr(owner, attribute, fn)
        self._originals.clear()


def original_bindings() -> dict[tuple[int, str], Callable]:
    """What every wrappable name is bound to now, to prove restoration."""
    return {
        (id(owner), attribute): fn for _, owner, attribute, fn, _ in _targets()
    }


# ---------------------------------------------------------------------- #
# From spans to per-layer numbers
# ---------------------------------------------------------------------- #


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus the time its child spans cover."""
    duration = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=len(duration)
    )
    return duration - covered


def layer_metrics(spans: dict[str, np.ndarray], passes: int) -> dict[str, float]:
    """Per-pass self times, call counts and batch widths from the spans."""
    names = [str(name) for name in spans["names"]]
    name_id = spans["name_id"]
    duration = spans["end"] - spans["start"]
    own = self_times(spans)
    self_by_name = np.bincount(name_id, weights=own, minlength=len(names))
    total_by_name = np.bincount(name_id, weights=duration, minlength=len(names))
    calls_by_name = np.bincount(name_id, minlength=len(names))

    def by(table: np.ndarray, span: str) -> float:
        return float(table[names.index(span)]) if span in names else 0.0

    metrics: dict[str, float] = {}
    for span, metric in SELF_METRICS.items():
        metrics[metric] = by(self_by_name, span) / passes
    for span, metric in CALL_METRICS.items():
        metrics[metric] = by(calls_by_name, span) / passes
    metrics["batch.summaries_s"] = by(total_by_name, "batch.summaries") / passes
    trial_rounds = float(spans["width"].sum()) / passes
    metrics["batch.trial_rounds"] = trial_rounds
    steps = metrics["batch.steps"]
    metrics["batch.mean_live_width"] = trial_rounds / steps if steps else 0.0
    kernel_s = metrics["kernels.step_s"] + metrics["kernels.outputs_s"]
    metrics["kernels.ns_per_trial_round"] = (
        kernel_s / trial_rounds * 1e9 if trial_rounds else 0.0
    )
    run_ms = (
        duration[name_id == names.index("executor.execute_run")] * 1e3
        if "executor.execute_run" in names
        else np.empty(0)
    )
    metrics["executor.run_samples"] = float(len(run_ms))
    for percentile in (50, 90):
        metrics[f"executor.run_ms_p{percentile}"] = (
            float(np.percentile(run_ms, percentile)) if len(run_ms) else 0.0
        )
    metrics["trace.spans"] = len(name_id) / passes
    return metrics
