"""The metrics registry: named counters, gauges and histograms.

One :class:`MetricsRegistry` is a flat namespace of *instruments*:

* :class:`Counter` -- a monotonically increasing integer (``inc``),
* :class:`Gauge` -- a point-in-time value, either set directly (``set``)
  or backed by a zero-argument callback so the registry can expose live
  engine state (a run's current buffered bytes, a governor's residency)
  without the hot path ever touching the registry,
* :class:`Histogram` -- explicit-bucket distribution (cumulative bucket
  counts plus sum/count), the Prometheus classic-histogram shape; used
  for per-run latencies.

Layers register once (module import or object construction) and mutate
their instruments directly -- instrument handles are plain attribute
bumps, there is no name lookup on any mutation path.  Registration is
idempotent per name (``counter("x")`` twice returns the same instrument),
so module-level layers and tests can share the process-wide
:func:`global_registry` without coordination.

Exporters (:mod:`repro.obs.export`) consume :meth:`MetricsRegistry.collect`;
``snapshot()`` gives tests and telemetry a plain dict.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Default latency buckets (seconds): micro-runs through minutes-long sweeps.
DEFAULT_LATENCY_BUCKETS = (
    0.001,
    0.005,
    0.025,
    0.1,
    0.5,
    2.5,
    10.0,
    60.0,
)


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "help", "value")
    kind = "counter"

    def __init__(self, name: str, help: str = ""):
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value, set directly or read from a callback."""

    __slots__ = ("name", "help", "_value", "_fn")
    kind = "gauge"

    def __init__(self, name: str, help: str = "", fn: Optional[Callable[[], float]] = None):
        self.name = name
        self.help = help
        self._value = 0
        self._fn = fn

    def set(self, value) -> None:
        self._value = value

    def set_function(self, fn: Optional[Callable[[], float]]) -> None:
        """Back the gauge by a live callback (``None`` reverts to ``set``)."""
        self._fn = fn

    @property
    def value(self):
        if self._fn is not None:
            return self._fn()
        return self._value


class Histogram:
    """Explicit-bucket histogram (cumulative counts, Prometheus-shaped)."""

    __slots__ = ("name", "help", "buckets", "bucket_counts", "count", "sum")
    kind = "histogram"

    def __init__(self, name: str, help: str = "", buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        self.name = name
        self.help = help
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("a histogram needs at least one bucket bound")
        self.bucket_counts = [0] * len(self.buckets)
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``value`` ``count`` times."""
        self.count += count
        self.sum += value * count
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.bucket_counts[index] += count

    def cumulative(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, ``+Inf`` excluded.

        ``observe`` already bumps *every* bucket whose bound admits the
        value, so the stored counts are cumulative as-is (``le``
        semantics); summing them again would double-count.
        """
        return list(zip(self.buckets, self.bucket_counts))


class MetricsRegistry:
    """A named set of instruments; registration locked, mutation lock-free."""

    def __init__(self):
        self._instruments: "Dict[str, object]" = {}
        self._lock = threading.Lock()

    # ---------------------------------------------------------- registration

    def _register(self, name: str, kind, factory):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is not None:
                if not isinstance(instrument, kind):
                    raise ValueError(
                        f"metric {name!r} already registered as {instrument.kind}"
                    )
                return instrument
            instrument = factory()
            self._instruments[name] = instrument
            return instrument

    def counter(self, name: str, help: str = "") -> Counter:
        """Get-or-create the counter ``name``."""
        return self._register(name, Counter, lambda: Counter(name, help))

    def gauge(self, name: str, help: str = "", fn: Optional[Callable[[], float]] = None) -> Gauge:
        """Get-or-create the gauge ``name`` (optionally callback-backed)."""
        gauge = self._register(name, Gauge, lambda: Gauge(name, help, fn))
        if fn is not None:
            gauge.set_function(fn)
        return gauge

    def histogram(
        self, name: str, help: str = "", buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS
    ) -> Histogram:
        """Get-or-create the histogram ``name`` with explicit buckets."""
        return self._register(name, Histogram, lambda: Histogram(name, help, buckets))

    def unregister(self, name: str) -> None:
        """Drop one instrument (per-run gauges detach themselves here)."""
        with self._lock:
            self._instruments.pop(name, None)

    # -------------------------------------------------------------- reading

    def collect(self) -> List[object]:
        """Every instrument, sorted by name (the exporters' input)."""
        with self._lock:
            return [self._instruments[name] for name in sorted(self._instruments)]

    def snapshot(self) -> dict:
        """Plain ``name -> value`` mapping (histograms: ``{count, sum}``)."""
        result = {}
        for instrument in self.collect():
            if instrument.kind == "histogram":
                result[instrument.name] = {"count": instrument.count, "sum": instrument.sum}
            else:
                result[instrument.name] = instrument.value
        return result

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._instruments

    def __len__(self) -> int:
        with self._lock:
            return len(self._instruments)


#: The process-wide registry every engine layer registers into.
_GLOBAL = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The always-on process-wide registry (engine, storage, session, ...)."""
    return _GLOBAL
