"""The anomaly flight recorder: always-on bounded telemetry with
post-mortem bundles.

Spans and metrics answer "what did this run do" *when someone asked in
advance*.  Degradations, timeouts, and cancellations do not announce themselves in advance -- by the time one happens, the
evidence is gone unless something was already recording.  The flight
recorder is that something:

* a **bounded ring buffer** (:class:`collections.deque` with a fixed
  ``maxlen``) of recent events -- runtime exhaustions, fallbacks,
  anomalies, run markers -- that is **always on**, even while the tracer
  and registry are disabled.  Events are rare and appending to a deque
  is O(1), so the dormant cost is unmeasurable next to the <5% guard
  budget (``bench_obs_overhead.py`` pins it);
* an **anomaly hook** (:meth:`FlightRecorder.anomaly`): the runtime
  layer calls it when a search degrades, times out, or is cancelled, and
  the condition checkers when a sweep exhausts.  Each anomaly lands in
  the ring and -- when a bundle directory is configured -- dumps a
  bundle;
* a **self-contained JSON bundle** (:meth:`FlightRecorder.dump`): the
  ring, the recent span tail, a metrics snapshot, the run's context
  (trace id, :class:`~repro.workloads.generators.WorkloadSpec`, argv),
  the triggering Degradation/TimedOut provenance, resource-sampler rows,
  and the environment -- everything ``repro obs report`` needs to render
  the incident with no access to the crashed process.

Bundle dumping is opt-in by location: set the ``REPRO_OBS_BUNDLE_DIR``
environment variable or call :meth:`FlightRecorder.set_bundle_dir`.
Without a directory, anomalies still land in the ring and an explicit
``dump()`` still returns the bundle dict -- nothing is written behind
the caller's back.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import sys
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.metrics import get_registry
from repro.obs.trace import clock_sample, get_tracer

__all__ = [
    "BUNDLE_DIR_ENV",
    "FlightRecorder",
    "get_recorder",
    "read_bundle",
]

#: Environment variable naming the directory anomaly bundles are dumped
#: into (created on first dump).
BUNDLE_DIR_ENV = "REPRO_OBS_BUNDLE_DIR"

#: Ring capacity: enough to hold every event of a long sweep's tail
#: without ever growing.
DEFAULT_CAPACITY = 512

#: At most this many bundles are auto-dumped per process -- a stuck
#: retry loop must not fill the disk with identical incident reports.
MAX_AUTO_BUNDLES = 8

#: How many of the most recent finished spans ride into a bundle.
SPAN_TAIL = 200


class FlightRecorder:
    """A bounded, always-on ring of recent events plus bundle dumping.

    The process-wide instance (:func:`get_recorder`) is never replaced.
    ``enabled`` exists for tests and pathological environments; the
    default is on, and staying on is the point -- see the module
    docstring for why that is compatible with the zero-overhead
    contract.
    """

    __slots__ = (
        "enabled",
        "capacity",
        "_ring",
        "_seq",
        "_context",
        "_bundle_dir",
        "_auto_dumped",
        "_lock",
        "_sampler",
    )

    def __init__(self, capacity: int = DEFAULT_CAPACITY, enabled: bool = True):
        self.enabled = enabled
        self.capacity = capacity
        self._ring: "deque[Dict[str, Any]]" = deque(maxlen=capacity)
        self._seq = 0
        self._context: Dict[str, Any] = {}
        self._bundle_dir: Optional[str] = None
        self._auto_dumped = 0
        self._lock = threading.Lock()
        self._sampler: Optional[Any] = None

    # -- recording ----------------------------------------------------------

    def record(self, kind: str, name: str, **attributes: Any) -> None:
        """Append one event to the ring (oldest events fall off).

        ``kind`` is a coarse class (``"event"``, ``"anomaly"``,
        ``"marker"``); ``name`` a dotted identifier like span names.
        """
        if not self.enabled:
            return
        perf_ns, wall_ns = clock_sample()
        self._seq += 1
        self._ring.append(
            {
                "seq": self._seq,
                "kind": kind,
                "name": name,
                "perf_ns": perf_ns,
                "wall_ns": wall_ns,
                "attributes": attributes,
            }
        )

    def anomaly(
        self,
        name: str,
        provenance: Optional[Dict[str, Any]] = None,
        **attributes: Any,
    ) -> Optional[str]:
        """Record an anomaly and -- when a bundle directory is configured
        -- dump an incident bundle.

        ``provenance`` is the structured "why" (a
        :class:`~repro.optimizer.spaces.Degradation` or
        :class:`~repro.conditions.checks.TimedOut` image); it rides into
        both the ring event and the bundle.  Returns the written bundle
        path, or ``None`` when no directory is configured or the
        auto-dump cap was reached.
        """
        if not self.enabled:
            return None
        self.record("anomaly", name, provenance=provenance, **attributes)
        if get_registry().enabled:
            get_registry().counter(
                "obs.anomalies", "anomalies seen by the flight recorder"
            ).inc(name=name)
        directory = self.bundle_dir
        if directory is None:
            return None
        with self._lock:
            if self._auto_dumped >= MAX_AUTO_BUNDLES:
                return None
            self._auto_dumped += 1
            ordinal = self._auto_dumped
        bundle = self.dump(name, provenance=provenance)
        stem = name.replace(".", "-")
        trace = bundle.get("trace_id") or f"pid{os.getpid()}"
        path = pathlib.Path(directory) / f"flight-{trace}-{ordinal:02d}-{stem}.json"
        return self._write(bundle, path)

    # -- context ------------------------------------------------------------

    def set_context(self, **fields: Any) -> None:
        """Merge run-identity fields (workload, command, argv, ...) into
        the context every bundle carries.  A ``workload`` with a
        ``to_dict`` is stored as its dict image."""
        for key, value in fields.items():
            if hasattr(value, "to_dict"):
                value = value.to_dict()
            self._context[key] = value

    def clear_context(self) -> None:
        """Drop the run-identity context (between CLI runs / requests)."""
        self._context.clear()

    @property
    def context(self) -> Dict[str, Any]:
        """The current run-identity context (a shallow copy)."""
        return dict(self._context)

    # -- bundle destination --------------------------------------------------

    @property
    def bundle_dir(self) -> Optional[str]:
        """Where anomaly bundles are dumped: the explicit
        :meth:`set_bundle_dir` value, else ``REPRO_OBS_BUNDLE_DIR``, else
        ``None`` (no auto-dumping)."""
        if self._bundle_dir is not None:
            return self._bundle_dir
        return os.environ.get(BUNDLE_DIR_ENV) or None

    def set_bundle_dir(self, directory: Optional[str]) -> None:
        """Set (or with ``None``, clear back to the environment) the
        bundle directory."""
        self._bundle_dir = directory

    def attach_sampler(self, sampler: Optional[Any]) -> None:
        """Let bundles include the active
        :class:`~repro.obs.sampler.ResourceSampler`'s rows (pass ``None``
        to detach).  The recorder only calls ``rows()`` on it."""
        self._sampler = sampler

    # -- dumping ------------------------------------------------------------

    def dump(
        self,
        reason: str,
        provenance: Optional[Dict[str, Any]] = None,
        path: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Assemble (and with ``path``, write) a self-contained incident
        bundle.  Always returns the bundle dict; see
        docs/observability.md for the schema."""
        tracer = get_tracer()
        spans = tracer.finished_spans()[-SPAN_TAIL:]
        resources: List[Dict[str, Any]] = []
        sampler = self._sampler
        if sampler is not None:
            try:
                resources = [dict(row) for row in sampler.rows()]
            except Exception:  # pragma: no cover - a dying sampler must not
                resources = []  # block the incident report
        bundle = {
            "type": "flight_bundle",
            "schema": 1,
            "reason": reason,
            "trace_id": tracer.trace_id,
            "wall_time_ns": time.time_ns(),
            "context": dict(self._context),
            "provenance": provenance,
            "environment": self._environment(),
            "events": [dict(event) for event in self._ring],
            "spans": [span.to_dict() for span in spans],
            "metrics": get_registry().snapshot(),
            "resources": resources,
        }
        if path is not None:
            self._write(bundle, pathlib.Path(path))
        return bundle

    def _write(self, bundle: Dict[str, Any], path: pathlib.Path) -> str:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(bundle, handle, sort_keys=True, default=str)
            handle.write("\n")
        return str(path)

    @staticmethod
    def _environment() -> Dict[str, Any]:
        return {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "pid": os.getpid(),
            "cpu_count": os.cpu_count(),
            "argv": list(sys.argv),
        }

    # -- inspection ----------------------------------------------------------

    def events(self) -> Tuple[Dict[str, Any], ...]:
        """The ring's current contents, oldest first."""
        return tuple(self._ring)

    def reset(self) -> None:
        """Drop the ring, context, and auto-dump budget (the enabled
        flag and bundle directory are untouched)."""
        self._ring.clear()
        self._seq = 0
        self._context.clear()
        self._auto_dumped = 0

    def __len__(self) -> int:
        return len(self._ring)

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return f"<FlightRecorder {state}, {len(self._ring)}/{self.capacity} events>"


def read_bundle(path: str) -> Dict[str, Any]:
    """Parse a bundle written by :meth:`FlightRecorder.dump` /
    :meth:`FlightRecorder.anomaly`."""
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


#: The process-wide flight recorder.  Never replaced; always on.
_RECORDER = FlightRecorder()


def get_recorder() -> FlightRecorder:
    """The process-wide flight-recorder singleton."""
    return _RECORDER
