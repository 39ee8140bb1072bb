"""``repro.obs`` — zero-overhead observability for engines and campaigns.

The subsystem has three small parts:

* :mod:`repro.obs.metrics` — counters, gauges and power-of-two histogram
  sketches in a mergeable :class:`~repro.obs.metrics.MetricsRegistry` with
  JSON snapshot export (multiprocessing workers serialise snapshots back to
  the parent; nothing is shared).
* :mod:`repro.obs.events` — typed lifecycle events
  (:class:`~repro.obs.events.CampaignStarted`,
  :class:`~repro.obs.events.RunFinished`,
  :class:`~repro.obs.events.RoundObserved`, …) fanned out to pluggable
  sinks: in-memory ring buffer, newline-JSONL file, rolling stderr
  progress line.
* :mod:`repro.obs.observer` — the :class:`~repro.obs.observer.Observer`
  handle instrumented code accepts, the no-op
  :data:`~repro.obs.observer.NULL_OBSERVER` default, and the process-global
  default-observer hook the CLI flags use.

Guarantees: observers never draw randomness (attaching one cannot change
any result — enforced by the parity-fuzz suite) and the disabled path costs
one ``is not None`` check per instrumentation guard (<2% on the batch hot
path, enforced by ``scripts/check_null_observer.py``).
"""

from repro.obs.events import (
    BatchGroupScheduled,
    CampaignFinished,
    CampaignStarted,
    Event,
    EventSink,
    FallbackTaken,
    FaultInjected,
    JsonlSink,
    NodeRecovered,
    ProgressSink,
    RingBufferSink,
    RoundObserved,
    RunFinished,
    RunStarted,
    RunsSkippedOnResume,
    event_from_dict,
    read_events,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_metrics,
    set_global_metrics,
)
from repro.obs.observer import (
    NULL_OBSERVER,
    NullObserver,
    Observer,
    active,
    default_observer,
    install_default_observer,
    observing,
)

__all__ = [
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "global_metrics",
    "set_global_metrics",
    # events
    "Event",
    "CampaignStarted",
    "RunsSkippedOnResume",
    "RunStarted",
    "RunFinished",
    "BatchGroupScheduled",
    "RoundObserved",
    "FaultInjected",
    "NodeRecovered",
    "FallbackTaken",
    "CampaignFinished",
    "EventSink",
    "RingBufferSink",
    "JsonlSink",
    "ProgressSink",
    "event_from_dict",
    "read_events",
    # observer
    "Observer",
    "NullObserver",
    "NULL_OBSERVER",
    "active",
    "default_observer",
    "install_default_observer",
    "observing",
]
