"""The resource sampler: a daemon-thread time series of process health.

Traces say what the engine *did*; the sampler says what it *cost* while
doing it.  A :class:`ResourceSampler` wakes every ``interval`` seconds
on a daemon thread and records one row of:

* ``rss_bytes`` -- resident set size, read from ``/proc/self/statm``
  where available, else the ``resource`` module's high-water mark;
* ``cpu_seconds`` -- user + system CPU time of this process
  (``os.times()``);
* ``tau_cache_hit_rate`` / ``tau_cache_entries`` -- cache behaviour of
  a watched :class:`~repro.database.Database`
  (:meth:`ResourceSampler.watch_database`);
* anything registered through :meth:`ResourceSampler.add_provider`.

Every row lands in a bounded deque (the run ledger, and any incident
dumped while the ledger is open, read it back), and -- while the
metrics registry is enabled -- each value is also published as a
``resource.<name>`` gauge (the current value) and a
``resource.<name>.series`` histogram (the distribution, so JSONL exports
carry min/max/p95 without shipping every row twice).

The sampler thread holds no locks shared with the engine.
"""

from __future__ import annotations

import os
import threading
import weakref
from collections import deque
from typing import Any, Callable, Dict, Optional, Tuple

from repro.obs.metrics import get_registry
from repro.obs.trace import clock_sample

__all__ = [
    "ResourceSampler",
    "read_rss_bytes",
]

#: Default wall-clock gap between samples, in seconds.
DEFAULT_INTERVAL = 0.05

#: Default bound on retained rows (at the default interval, ~100s of
#: history -- plenty for a run ledger, never unbounded for a service).
DEFAULT_CAPACITY = 2048

_PAGE_SIZE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def read_rss_bytes() -> int:
    """This process's resident set size in bytes.

    ``/proc/self/statm`` is the cheap, current figure on Linux; the
    fallback is ``resource.getrusage``'s high-water mark (kilobytes on
    Linux, bytes on macOS -- normalized here), which only ever grows but
    is better than nothing on /proc-less platforms.
    """
    try:
        with open("/proc/self/statm", "rb") as handle:
            return int(handle.read().split()[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        pass
    try:
        import resource

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return peak if os.uname().sysname == "Darwin" else peak * 1024
    except Exception:  # pragma: no cover - no resource module either
        return 0


def _cpu_seconds() -> float:
    times = os.times()
    return times.user + times.system


class ResourceSampler:
    """A bounded, daemon-threaded resource time series.

    Use it scoped (the ledger does)::

        with ResourceSampler(interval=0.05) as sampler:
            ...  # the run
        peaks = sampler.summary()

    or drive it by hand in tests with :meth:`sample_once`.  ``start`` is
    idempotent; ``stop`` joins the thread and publishes peak gauges
    (``resource.rss_peak_bytes``, ``resource.cpu_seconds_total``) so
    even a metrics-only consumer sees the run's high-water marks.
    """

    __slots__ = (
        "interval",
        "_rows",
        "_providers",
        "_thread",
        "_stop",
        "_watched_db",
    )

    def __init__(
        self,
        interval: float = DEFAULT_INTERVAL,
        capacity: int = DEFAULT_CAPACITY,
    ):
        self.interval = interval
        self._rows: "deque[Dict[str, Any]]" = deque(maxlen=capacity)
        self._providers: Dict[str, Callable[[], Any]] = {
            "rss_bytes": read_rss_bytes,
            "cpu_seconds": _cpu_seconds,
        }
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._watched_db: Optional[weakref.ref] = None

    # -- providers -----------------------------------------------------------

    def add_provider(self, name: str, fn: Callable[[], Any]) -> None:
        """Register (or replace) one sampled quantity.  ``fn`` is called
        on the sampler thread each tick; it must be cheap and must not
        raise (a raising provider is dropped from the row, not fatal)."""
        self._providers[name] = fn

    def watch_database(self, db) -> None:
        """Sample ``db``'s tau-cache behaviour (``tau_cache_hit_rate``,
        ``tau_cache_entries``).  Held by weakref: a dropped database
        silently leaves the series."""
        self._watched_db = weakref.ref(db)

    def _db_values(self) -> Dict[str, Any]:
        ref = self._watched_db
        db = ref() if ref is not None else None
        if db is None:
            return {}
        stats = db.cache_stats()
        return {
            "tau_cache_hit_rate": stats.hit_rate,
            "tau_cache_entries": stats.tau_entries,
        }

    # -- sampling ------------------------------------------------------------

    def sample_once(self) -> Dict[str, Any]:
        """Take one sample row now (on the calling thread), record it,
        and return it."""
        perf_ns, wall_ns = clock_sample()
        row: Dict[str, Any] = {
            "type": "resource",
            "perf_ns": perf_ns,
            "wall_ns": wall_ns,
        }
        for name, fn in self._providers.items():
            try:
                row[name] = fn()
            except Exception:
                continue
        row.update(self._db_values())
        self._rows.append(row)
        registry = get_registry()
        if registry.enabled:
            for name, value in row.items():
                if name in ("type", "perf_ns", "wall_ns") or not isinstance(
                    value, (int, float)
                ):
                    continue
                registry.gauge(
                    f"resource.{name}", f"sampled {name} (current)"
                ).set(value)
                registry.histogram(
                    f"resource.{name}.series", f"sampled {name} (time series)"
                ).observe(value)
        return row

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample_once()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ResourceSampler":
        """Start the daemon thread (idempotent)."""
        if self._thread is None or not self._thread.is_alive():
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._loop, name="repro-resource-sampler", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        """Stop the thread, take one final sample, and publish peak
        gauges.  Safe to call twice; the rows survive for export."""
        thread = self._thread
        self._thread = None
        if thread is not None:
            self._stop.set()
            thread.join(timeout=2.0)
        self.sample_once()
        registry = get_registry()
        if registry.enabled and self._rows:
            summary = self.summary()
            registry.gauge(
                "resource.rss_peak_bytes", "peak sampled RSS over the run"
            ).set(summary["rss_peak_bytes"])
            registry.gauge(
                "resource.cpu_seconds_total", "CPU seconds at the last sample"
            ).set(summary["cpu_seconds_total"])

    def __enter__(self) -> "ResourceSampler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- inspection ----------------------------------------------------------

    def rows(self) -> Tuple[Dict[str, Any], ...]:
        """The recorded sample rows, oldest first (bounded)."""
        return tuple(self._rows)

    def summary(self) -> Dict[str, Any]:
        """Peaks and totals over the recorded rows (zeros when empty)."""
        rows = self._rows
        def peak(name: str) -> float:
            return max((row.get(name, 0) or 0) for row in rows) if rows else 0

        return {
            "samples": len(rows),
            "rss_peak_bytes": peak("rss_bytes"),
            "cpu_seconds_total": (
                (rows[-1].get("cpu_seconds", 0) or 0) if rows else 0
            ),
        }

    def __repr__(self) -> str:
        alive = self._thread is not None and self._thread.is_alive()
        return (
            f"<ResourceSampler {'running' if alive else 'stopped'} "
            f"{len(self._rows)} rows @{self.interval}s>"
        )
