"""Lightweight process-local metrics: counters, gauges and timing sketches.

The instrumentation layer (:mod:`repro.obs.observer`) records everything it
measures into a :class:`MetricsRegistry` — a flat namespace of named
:class:`Counter`, :class:`Gauge` and :class:`Histogram` instruments.  The
registry is deliberately tiny and dependency-free:

* **Counters** are monotonically increasing integers (runs completed, rounds
  simulated, fallbacks taken).
* **Gauges** record the latest value of a quantity (live trials in a batch,
  trial-rounds per second of the last batch group).
* **Histograms** are *sketches*, not sample lists: each observation lands in
  a power-of-two bucket, so a million-run campaign costs a handful of ints
  per metric while count / sum / min / max stay exact and quantiles are
  bucket-resolution approximations.  That is what makes per-run timing safe
  to leave on for arbitrarily large campaigns.

Registries are **explicitly mergeable** instead of shared: a multiprocessing
worker never touches the parent's registry — it measures locally, the
measurements travel back serialized with the results, and the parent folds
them in via :meth:`MetricsRegistry.merge`.  Snapshots
(:meth:`MetricsRegistry.snapshot`) are plain JSON-serialisable dictionaries,
which is also the on-disk export format of the CLI's ``--metrics-out``.

There is one process-global default registry (:func:`global_metrics`) for
callers that do not want to thread a registry through their stack; every
instrumented API also accepts an explicitly injected registry (via the
observer) so tests and concurrent campaigns can stay isolated.
"""

from __future__ import annotations

import json
import math
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Mapping

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "global_metrics",
    "set_global_metrics",
]

#: Bucket key for non-positive histogram observations (durations and counts
#: are non-negative, but the sketch must not lose pathological inputs).
_ZERO_BUCKET = -(2**31)


def _bucket_of(value: float) -> int:
    """The power-of-two bucket of a value: ``v`` lands in ``[2^(e-1), 2^e)``."""
    if value <= 0:
        return _ZERO_BUCKET
    return math.frexp(value)[1]


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        self.value += amount


class Gauge:
    """The most recent value of a quantity (``None`` until first set)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: float | None = None

    def set(self, value: float) -> None:
        """Record the latest value."""
        self.value = value


class Histogram:
    """A power-of-two bucket sketch of a distribution.

    Exact ``count`` / ``sum`` / ``min`` / ``max``; :meth:`quantile` returns
    the upper bound of the bucket where the requested rank falls (a factor-2
    approximation, which is plenty for timing and round-count sketches).
    """

    __slots__ = ("count", "total", "minimum", "maximum", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum: float | None = None
        self.maximum: float | None = None
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        """Account one observation."""
        value = float(value)
        self.count += 1
        self.total += value
        if self.minimum is None or value < self.minimum:
            self.minimum = value
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        bucket = _bucket_of(value)
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1

    @property
    def mean(self) -> float | None:
        """Arithmetic mean of the observations (``None`` when empty)."""
        return self.total / self.count if self.count else None

    def quantile(self, q: float) -> float | None:
        """Approximate ``q``-quantile: the upper bound of the rank's bucket."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self.count:
            return None
        rank = q * self.count
        seen = 0
        for bucket in sorted(self.buckets):
            seen += self.buckets[bucket]
            if seen >= rank:
                return 0.0 if bucket == _ZERO_BUCKET else math.ldexp(1.0, bucket)
        return self.maximum

    def snapshot(self) -> dict[str, Any]:
        """JSON-serialisable form (bucket keys become strings)."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "buckets": {str(bucket): count for bucket, count in sorted(self.buckets.items())},
        }

    def merge(self, data: Mapping[str, Any]) -> None:
        """Fold another histogram's :meth:`snapshot` into this one."""
        other_count = int(data.get("count", 0))
        if not other_count:
            return
        self.count += other_count
        self.total += float(data.get("sum", 0.0))
        for extreme, pick in (("min", min), ("max", max)):
            value = data.get(extreme)
            if value is None:
                continue
            current = self.minimum if extreme == "min" else self.maximum
            merged = float(value) if current is None else pick(current, float(value))
            if extreme == "min":
                self.minimum = merged
            else:
                self.maximum = merged
        for key, count in dict(data.get("buckets", {})).items():
            bucket = int(key)
            self.buckets[bucket] = self.buckets.get(bucket, 0) + int(count)


class MetricsRegistry:
    """A named collection of counters, gauges and histograms.

    Instruments are created on first use (``registry.counter("x").inc()``)
    and live for the registry's lifetime.  All mutation goes through a lock —
    instrument lookups are the only synchronised operation, so the per-event
    cost stays at one dict access — making the registry safe to share between
    the main thread and sink callbacks.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instruments ---------------------------------------------------- #

    def counter(self, name: str) -> Counter:
        """Get or create the named counter."""
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter()
            return instrument

    def gauge(self, name: str) -> Gauge:
        """Get or create the named gauge."""
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge()
            return instrument

    def histogram(self, name: str) -> Histogram:
        """Get or create the named histogram."""
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram()
            return instrument

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Time a ``with`` block into the named histogram (seconds)."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.histogram(name).observe(time.perf_counter() - started)

    # -- export and aggregation ----------------------------------------- #

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    def snapshot(self) -> dict[str, Any]:
        """The registry as one JSON-serialisable mapping."""
        with self._lock:
            return {
                "counters": {
                    name: counter.value for name, counter in sorted(self._counters.items())
                },
                "gauges": {
                    name: gauge.value for name, gauge in sorted(self._gauges.items())
                },
                "histograms": {
                    name: histogram.snapshot()
                    for name, histogram in sorted(self._histograms.items())
                },
            }

    def merge(self, other: "MetricsRegistry | Mapping[str, Any]") -> None:
        """Fold another registry (or a :meth:`snapshot`) into this one.

        Counters and histograms add; gauges take the other side's latest
        value (last merge wins) — the semantics a parent process wants when
        it aggregates worker registries at join time.
        """
        data = other.snapshot() if isinstance(other, MetricsRegistry) else other
        for name, value in dict(data.get("counters", {})).items():
            self.counter(name).inc(int(value))
        for name, value in dict(data.get("gauges", {})).items():
            if value is not None:
                self.gauge(name).set(value)
        for name, histogram_data in dict(data.get("histograms", {})).items():
            self.histogram(name).merge(histogram_data)

    @classmethod
    def from_snapshot(cls, data: Mapping[str, Any]) -> "MetricsRegistry":
        """Rebuild a registry from a :meth:`snapshot` mapping."""
        registry = cls()
        registry.merge(data)
        return registry

    def to_json(self) -> str:
        """The snapshot as indented JSON."""
        return json.dumps(self.snapshot(), indent=2, sort_keys=True)

    def write_json(self, path: str | Path) -> None:
        """Write the snapshot to ``path`` (creating parent directories)."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.to_json() + "\n", encoding="utf-8")


_global_lock = threading.Lock()
_global_registry: MetricsRegistry | None = None


def global_metrics() -> MetricsRegistry:
    """The process-global default registry (created on first use)."""
    global _global_registry
    with _global_lock:
        if _global_registry is None:
            _global_registry = MetricsRegistry()
        return _global_registry


def set_global_metrics(registry: MetricsRegistry | None) -> MetricsRegistry | None:
    """Replace the process-global registry; returns the previous one.

    ``None`` resets to a fresh lazily-created registry.  Tests use this to
    isolate themselves from ambient instrumentation.
    """
    global _global_registry
    with _global_lock:
        previous = _global_registry
        _global_registry = registry
        return previous
