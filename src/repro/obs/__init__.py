"""Observability: execution tracing, metrics, telemetry export, and
profiling.

The subsystem has eight small parts:

* :mod:`repro.obs.trace` -- a nested span tracer with a context-manager
  API, per-span attributes, and monotonic timings;
* :mod:`repro.obs.metrics` -- a process-wide registry of counters,
  gauges, and histograms (with p50/p95/p99 percentiles) and label
  support;
* :mod:`repro.obs.export` -- Chrome-trace (Perfetto) export plus
  human-readable rendering;
* :mod:`repro.obs.profile` -- the ``EXPLAIN ANALYZE``-style
  :class:`~repro.obs.profile.RunReport` profiler (per-step estimated vs
  actual tau, Q-error, wall time, kernel counters, cache hit rates,
  per-phase peak memory);
* :mod:`repro.obs.recorder` -- the always-on anomaly flight recorder: a
  bounded ring of recent events that dumps a self-contained incident
  bundle when the runtime degrades, times out, or is cancelled (set
  ``REPRO_OBS_BUNDLE_DIR``);
* :mod:`repro.obs.sampler` -- the daemon-thread resource sampler (RSS,
  CPU, tau-cache hit rate), published as ``resource.*`` metrics;
* :mod:`repro.obs.ledger` -- the unified run ledger: one JSONL stream
  per run (header, spans, metrics, resources, events, a profiled run's
  ``profile`` and ``operator`` records, outcome) plus the aggregation
  behind the ``repro obs`` CLI family;
* :mod:`repro.obs.regress` -- the perf-regression sentinel that diffs
  fresh ``BENCH_*.json`` runs against ``benchmarks/baselines/``.

Everything is **off by default and free when off**: the singletons are
created disabled, instrumented hot paths guard on a single flag, and the
regression tests assert that a default run records nothing.  Turn the
whole layer on and off together::

    import repro.obs as obs

    obs.enable()
    with obs.RunLedger("my.run") as ledger:
        ...         # optimizers, joins, checkers now record
    print(obs.render_span_tree())
    print(obs.render_metrics())
    ledger.write("run.jsonl")
    obs.disable()

or scoped::

    with obs.observed():
        plan = query.optimize()

See docs/observability.md for the span model, metric names, and the
ledger's JSONL schema.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.obs.export import (
    record_strategy_steps,
    render_metrics,
    render_span_tree,
    spans_to_chrome_trace,
    write_chrome_trace,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from repro.obs.recorder import FlightRecorder, get_recorder, read_bundle
from repro.obs.sampler import ResourceSampler, active_sampler
from repro.obs.trace import Span, Tracer, get_tracer

__all__ = [
    "Span",
    "Tracer",
    "get_tracer",
    "FlightRecorder",
    "get_recorder",
    "read_bundle",
    "ResourceSampler",
    "active_sampler",
    "RunLedger",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "spans_to_chrome_trace",
    "write_chrome_trace",
    "render_span_tree",
    "render_metrics",
    "record_strategy_steps",
    "enable",
    "disable",
    "is_enabled",
    "reset",
    "observed",
    "RunReport",
    "StepProfile",
]


def enable() -> None:
    """Turn on span recording *and* metric collection."""
    get_tracer().enabled = True
    get_registry().enabled = True


def disable() -> None:
    """Turn off span recording and metric collection."""
    get_tracer().enabled = False
    get_registry().enabled = False


def is_enabled() -> bool:
    """Whether the observability layer is recording (tracer flag)."""
    return get_tracer().enabled


def reset() -> None:
    """Clear all recorded spans and metric series (flags untouched)."""
    get_tracer().clear()
    get_registry().reset()


@contextmanager
def observed():
    """Enable observability for a ``with`` block, restoring the previous
    enabled/disabled state afterwards -- including when the body raises
    (spans/metrics recorded inside are kept).  The previous state is
    captured *before* anything is flipped and restored in a ``finally``,
    so no exit path can leave the layer stuck on."""
    tracer, registry = get_tracer(), get_registry()
    before = (tracer.enabled, registry.enabled)
    try:
        enable()
        yield tracer
    finally:
        tracer.enabled, registry.enabled = before


def __getattr__(name: str):
    # Lazy: repro.obs.profile imports the database/optimizer stack, which
    # itself imports repro.obs at interpreter start -- resolving RunReport
    # on first touch keeps the package import-cycle free.  RunLedger is
    # lazy for the same reason in miniature (it pulls in repro.report).
    if name in ("RunReport", "StepProfile"):
        from repro.obs import profile

        return getattr(profile, name)
    if name == "RunLedger":
        from repro.obs.ledger import RunLedger

        return RunLedger
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
