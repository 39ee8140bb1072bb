"""The observer: the single handle instrumented code talks to.

An :class:`Observer` bundles a set of event sinks, a metrics registry and a
round-sampling stride.  Every instrumentation point in the engines and the
campaign stack takes an ``observer=None`` keyword; the contract that keeps
the hot paths honest is:

* ``None`` and :data:`NULL_OBSERVER` mean *no observation*.  Instrumented
  code normalises its argument once via :func:`active` and then guards every
  measurement with a plain ``if obs is not None`` — so the disabled cost is
  one identity check per guard, which is what the <2% overhead benchmark
  (``scripts/check_null_observer.py``) measures.
* Observers only *read*.  They never draw from any RNG and never mutate
  simulation state, so attaching one cannot perturb results — the parity
  fuzz harness runs with a recording observer attached to prove it.
* Workers never share an observer across processes.  Parallel executors
  measure locally and merge registry snapshots at join time
  (:meth:`~repro.obs.metrics.MetricsRegistry.merge`).

A process-global *default observer* (:func:`install_default_observer` /
:func:`default_observer`) lets surface layers — the CLI's ``--progress`` /
``--metrics-out`` / ``--events-out`` flags — wire observation underneath
code that never mentions observers, such as the experiment scripts:
:func:`~repro.campaigns.runner.run_campaign` falls back to the default
observer when no explicit one is passed.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator, Sequence

from repro.obs.events import Event, EventSink, RingBufferSink
from repro.obs.metrics import MetricsRegistry, global_metrics

__all__ = [
    "Observer",
    "NullObserver",
    "NULL_OBSERVER",
    "active",
    "default_observer",
    "install_default_observer",
    "observing",
]


class Observer:
    """Fans events out to sinks and owns the metrics registry.

    Parameters
    ----------
    sinks:
        Event sinks to fan out to (may be empty for metrics-only use).
    metrics:
        The registry measurements are recorded into; defaults to the
        process-global registry (:func:`~repro.obs.metrics.global_metrics`).
    round_stride:
        Emit a :class:`~repro.obs.events.RoundObserved` event every this
        many rounds; ``0`` (the default) disables round sampling entirely,
        keeping per-round work out of the engines' inner loops.
    """

    is_null = False

    def __init__(
        self,
        sinks: Sequence[EventSink] = (),
        metrics: MetricsRegistry | None = None,
        round_stride: int = 0,
    ) -> None:
        if round_stride < 0:
            raise ValueError(f"round_stride must be >= 0, got {round_stride}")
        self.sinks = tuple(sinks)
        self.metrics = metrics if metrics is not None else global_metrics()
        self.round_stride = round_stride

    def emit(self, event: Event) -> None:
        """Deliver one event to every sink."""
        for sink in self.sinks:
            sink.emit(event)

    def close(self) -> None:
        """Close every sink (idempotent)."""
        for sink in self.sinks:
            sink.close()

    def __enter__(self) -> "Observer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @classmethod
    def recording(
        cls,
        round_stride: int = 1,
        capacity: int = 4096,
        metrics: MetricsRegistry | None = None,
    ) -> "Observer":
        """An observer that records events into an in-memory ring buffer.

        The buffer is exposed as ``observer.buffer``; metrics default to a
        *fresh* registry (not the global one) so recordings are isolated.
        """
        buffer = RingBufferSink(capacity)
        observer = cls(
            sinks=(buffer,),
            metrics=metrics if metrics is not None else MetricsRegistry(),
            round_stride=round_stride,
        )
        observer.buffer = buffer
        return observer


class NullObserver(Observer):
    """The no-op observer: observes nothing, costs (almost) nothing.

    Instrumented code treats it exactly like ``None`` — :func:`active`
    normalises both to ``None`` — so passing it is equivalent to passing no
    observer at all.  It exists so APIs can default to a real object
    (``observer or NULL_OBSERVER``) without growing per-call conditionals.
    """

    is_null = True

    def __init__(self) -> None:
        super().__init__(sinks=(), metrics=MetricsRegistry(), round_stride=0)

    def emit(self, event: Event) -> None:
        pass


#: The shared no-op observer instance.
NULL_OBSERVER = NullObserver()


def active(observer: Observer | None) -> Observer | None:
    """Normalise an observer argument for hot paths.

    Returns ``None`` for ``None`` and for null observers, the observer
    itself otherwise — so instrumented loops pay a single ``is not None``
    check per guard regardless of which disabled form the caller passed.
    """
    if observer is None or observer.is_null:
        return None
    return observer


_default_lock = threading.Lock()
_default_observer: Observer | None = None


def default_observer() -> Observer | None:
    """The process-global default observer, if one is installed."""
    with _default_lock:
        return _default_observer


def install_default_observer(observer: Observer | None) -> Observer | None:
    """Install (or with ``None`` clear) the default observer; returns the previous one."""
    global _default_observer
    with _default_lock:
        previous = _default_observer
        _default_observer = observer
        return previous


@contextmanager
def observing(observer: Observer) -> Iterator[Observer]:
    """Install ``observer`` as the process default for a ``with`` block.

    Restores the previous default and closes the observer's sinks on exit.
    """
    previous = install_default_observer(observer)
    try:
        yield observer
    finally:
        install_default_observer(previous)
        observer.close()
