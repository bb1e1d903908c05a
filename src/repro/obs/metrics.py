"""A process-wide registry of counters, gauges, and histograms.

Metrics complement spans: a span answers "what did *this* run do and how
long did it take", a metric answers "how much work, in total, across
everything that ran".  The optimizers publish search-effort counters
(states solved, memo hits, plans pruned), the join engine publishes
comparison counts, and the estimator publishes a Q-error histogram.

Like the tracer, the registry is disabled by default and the singleton
(:func:`get_registry`) is never replaced, so hot paths guard with a
single flag check::

    _METRICS = get_registry()
    ...
    if _METRICS.enabled:
        _COMPARISONS.inc(n)

Instruments support **labels** (keyword arguments on the observation
call); each distinct label set is an independent series, as in
Prometheus::

    STATES.inc(17, space="linear")
    STATES.inc(23, space="all")

All state is plain Python numbers under no lock -- the library is
single-threaded per database, and metrics are advisory telemetry, not
control flow.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ReproError

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
]

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, Any]) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class _Instrument:
    """Shared base: a named instrument owned by one registry."""

    __slots__ = ("name", "description", "_registry", "_series")

    kind = "instrument"

    def __init__(self, name: str, description: str, registry: "MetricsRegistry"):
        self.name = name
        self.description = description
        self._registry = registry
        self._series: Dict[LabelKey, Any] = {}

    def series(self) -> Dict[LabelKey, Any]:
        """The per-label-set values (a shallow copy)."""
        return dict(self._series)

    def value(self, **labels: Any):
        """The value for one label set (``None`` if never observed)."""
        return self._series.get(_label_key(labels))

    def clear(self) -> None:
        """Drop all series."""
        self._series.clear()

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}: {len(self._series)} series>"


class Counter(_Instrument):
    """A monotonically increasing count."""

    __slots__ = ()
    kind = "counter"

    def inc(self, amount: int = 1, **labels: Any) -> None:
        """Add ``amount`` (default 1) to the series for ``labels``."""
        if not self._registry.enabled:
            return
        if amount < 0:
            raise ReproError(f"counter {self.name} cannot decrease (got {amount})")
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0) + amount


class Gauge(_Instrument):
    """A value that can go up and down (last write wins)."""

    __slots__ = ()
    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        """Set the series for ``labels`` to ``value``."""
        if not self._registry.enabled:
            return
        self._series[_label_key(labels)] = value


class HistogramSummary:
    """The running summary a :class:`Histogram` keeps per series.

    Besides the running count/sum/min/max, every observation is retained
    (these are per-run telemetry series, not unbounded server streams) so
    exact percentiles are available: :meth:`percentile` answers any
    quantile, and ``to_dict`` carries the p50/p95/p99 trio the exporters
    surface (JSONL, ``render_metrics``, Prometheus summaries).
    """

    __slots__ = ("count", "total", "min", "max", "_samples")

    def __init__(self):
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._samples: List[float] = []

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self._samples.append(value)

    @property
    def mean(self) -> float:
        """The arithmetic mean of the observations (0.0 when empty)."""
        if self.count == 0:
            return 0.0
        return self.total / self.count

    def percentile(self, q: float) -> Optional[float]:
        """The ``q``-th percentile (``0 <= q <= 100``), linearly
        interpolated between adjacent observations; ``None`` when empty."""
        if not 0.0 <= q <= 100.0:
            raise ReproError(f"percentile must be in [0, 100], got {q}")
        if not self._samples:
            return None
        ordered = sorted(self._samples)
        rank = (len(ordered) - 1) * (q / 100.0)
        lower = math.floor(rank)
        upper = math.ceil(rank)
        if lower == upper:
            return ordered[lower]
        fraction = rank - lower
        return ordered[lower] * (1.0 - fraction) + ordered[upper] * fraction

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def __repr__(self) -> str:
        return (
            f"<HistogramSummary n={self.count} mean={self.mean:.3f} "
            f"min={self.min} max={self.max}>"
        )


class Histogram(_Instrument):
    """A distribution summary: count / sum / min / max / mean per series."""

    __slots__ = ()
    kind = "histogram"

    def observe(self, value: float, **labels: Any) -> None:
        """Record one observation into the series for ``labels``."""
        if not self._registry.enabled:
            return
        key = _label_key(labels)
        summary = self._series.get(key)
        if summary is None:
            summary = self._series[key] = HistogramSummary()
        summary.observe(value)


class MetricsRegistry:
    """Creates and owns instruments; disabled (all no-op) by default.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice
    for the same name returns the same instrument, and asking for an
    existing name with a different kind raises
    :class:`~repro.errors.ReproError` (a name means one thing).
    """

    __slots__ = ("enabled", "_instruments")

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._instruments: Dict[str, _Instrument] = {}

    def _get_or_create(self, cls, name: str, description: str) -> _Instrument:
        existing = self._instruments.get(name)
        if existing is not None:
            if type(existing) is not cls:
                raise ReproError(
                    f"metric {name!r} already registered as a "
                    f"{existing.kind}, cannot re-register as a {cls.kind}"
                )
            return existing
        instrument = cls(name, description, self)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, description: str = "") -> Counter:
        """Get or create the counter ``name``."""
        return self._get_or_create(Counter, name, description)

    def gauge(self, name: str, description: str = "") -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get_or_create(Gauge, name, description)

    def histogram(self, name: str, description: str = "") -> Histogram:
        """Get or create the histogram ``name``."""
        return self._get_or_create(Histogram, name, description)

    def instruments(self) -> Tuple[_Instrument, ...]:
        """All registered instruments, sorted by name."""
        return tuple(self._instruments[n] for n in sorted(self._instruments))

    def snapshot(self) -> List[Dict[str, Any]]:
        """All nonempty series as JSON-ready rows.

        One row per (instrument, label set)::

            {"type": "metric", "kind": "counter", "name": "...",
             "labels": {...}, "value": 42}

        Histogram rows carry the summary dict as ``value``.
        """
        rows: List[Dict[str, Any]] = []
        for instrument in self.instruments():
            for key, value in sorted(instrument.series().items()):
                rows.append(
                    {
                        "type": "metric",
                        "kind": instrument.kind,
                        "name": instrument.name,
                        "labels": dict(key),
                        "value": value.to_dict()
                        if isinstance(value, HistogramSummary)
                        else value,
                    }
                )
        return rows

    def reset(self) -> None:
        """Clear every instrument's series (registrations survive)."""
        for instrument in self._instruments.values():
            instrument.clear()

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"<MetricsRegistry {state}, {len(self._instruments)} instruments>"


#: The process-wide registry.  Never replaced -- instrumented modules
#: create their instruments at import time and guard on ``.enabled``.
_REGISTRY = MetricsRegistry(enabled=False)


def get_registry() -> MetricsRegistry:
    """The process-wide metrics registry singleton."""
    return _REGISTRY
