"""The anomaly flight recorder: always-on bounded telemetry with
post-mortem incident ledgers.

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
  the ring and -- when a bundle directory is configured -- dumps an
  incident;
* an **incident** (:meth:`FlightRecorder.dump`): a run ledger
  (:mod:`repro.obs.ledger`) whose ``run`` header is the open
  :class:`~repro.obs.ledger.RunLedger`'s, or a bare one naming no run,
  plus the anomaly's ``reason`` and ``provenance``; then the recent span
  tail, a metrics snapshot, the open run's resource rows, the ring, and
  an ``outcome`` -- everything ``repro obs report`` needs to render the
  incident with no access to the crashed process.

The open ledger is the recorder's only record of the current run:
:attr:`FlightRecorder.run` is set by ``RunLedger.__enter__`` and put
back by its ``__exit__``.

Dumping is opt-in by location: set the ``REPRO_OBS_BUNDLE_DIR``
environment variable or call :meth:`FlightRecorder.set_bundle_dir`.
Without a directory, anomalies still land in the ring and an explicit
``dump()`` still returns the records -- nothing is written behind the
caller's back.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.obs.metrics import get_registry
from repro.obs.trace import clock_sample, get_tracer

if TYPE_CHECKING:
    from repro.obs.ledger import RunLedger

__all__ = [
    "BUNDLE_DIR_ENV",
    "FlightRecorder",
    "get_recorder",
]

#: Environment variable naming the directory incidents are dumped into
#: (created on first dump).
BUNDLE_DIR_ENV = "REPRO_OBS_BUNDLE_DIR"

#: Ring capacity: enough to hold every event of a long sweep's tail
#: without ever growing.
DEFAULT_CAPACITY = 512

#: At most this many incidents are auto-dumped per process -- a stuck
#: retry loop must not fill the disk with identical incident reports.
MAX_AUTO_BUNDLES = 8

#: How many of the most recent finished spans ride into an incident.
SPAN_TAIL = 200


class FlightRecorder:
    """A bounded, always-on ring of recent events plus incident dumping.

    The process-wide instance (:func:`get_recorder`) is never replaced.
    ``enabled`` exists for tests and pathological environments; the
    default is on, and staying on is the point -- see the module
    docstring for why that is compatible with the zero-overhead
    contract.  ``run`` is the open :class:`~repro.obs.ledger.RunLedger`,
    or ``None`` outside one.
    """

    __slots__ = (
        "enabled",
        "capacity",
        "run",
        "_ring",
        "_seq",
        "_bundle_dir",
        "_auto_dumped",
        "_lock",
    )

    def __init__(self, capacity: int = DEFAULT_CAPACITY, enabled: bool = True):
        self.enabled = enabled
        self.capacity = capacity
        self.run: Optional["RunLedger"] = None
        self._ring: "deque[Dict[str, Any]]" = deque(maxlen=capacity)
        self._seq = 0
        self._bundle_dir: Optional[str] = None
        self._auto_dumped = 0
        self._lock = threading.Lock()

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
        -- dump an incident into it as
        ``flight-<trace>-<nn>-<reason>.jsonl``.

        ``provenance`` is the structured "why" (a
        :class:`~repro.optimizer.spaces.Degradation` or
        :class:`~repro.conditions.checks.TimedOut` image); it rides into
        both the ring event and the incident's header.  Returns the
        written path, or ``None`` when no directory is configured or the
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
        # The ledger module imports this one, so its writer is imported here.
        from repro.obs.ledger import write_records

        records = self.dump(name, provenance=provenance)
        trace = records[0]["trace_id"] or f"pid{os.getpid()}"
        stem = name.replace(".", "-")
        path = os.path.join(directory, f"flight-{trace}-{ordinal:02d}-{stem}.jsonl")
        write_records(records, path)
        return path

    # -- bundle destination --------------------------------------------------

    @property
    def bundle_dir(self) -> Optional[str]:
        """Where incidents are dumped: the explicit
        :meth:`set_bundle_dir` value, else ``REPRO_OBS_BUNDLE_DIR``, else
        ``None`` (no auto-dumping)."""
        if self._bundle_dir is not None:
            return self._bundle_dir
        return os.environ.get(BUNDLE_DIR_ENV) or None

    def set_bundle_dir(self, directory: Optional[str]) -> None:
        """Set (or with ``None``, clear back to the environment) the
        bundle directory."""
        self._bundle_dir = directory

    # -- dumping ------------------------------------------------------------

    def dump(
        self,
        reason: str,
        provenance: Optional[Dict[str, Any]] = None,
        path: Optional[str] = None,
    ) -> List[Dict[str, Any]]:
        """Assemble (and with ``path``, write) an incident: the ledger
        records described in the module docstring, the header carrying
        ``reason`` and ``provenance``.  Always returns the records; see
        docs/observability.md for the schema."""
        from repro.obs.ledger import run_header, write_records

        run = self.run
        tracer = get_tracer()
        if run is not None:
            header = run.header()
        else:
            header = run_header(trace_id=tracer.trace_id)
        header.update(reason=reason, provenance=provenance)
        events = [dict(event, type="event") for event in self.events()]
        records: List[Dict[str, Any]] = [header]
        records.extend(span.to_dict() for span in tracer.finished_spans()[-SPAN_TAIL:])
        records.extend(get_registry().snapshot())
        if run is not None:
            records.extend(dict(row) for row in run.sampler.rows())
        records.extend(events)
        records.append(
            {
                "type": "outcome",
                "trace_id": header["trace_id"],
                "wall_ms": None,
                "anomalies": sum(1 for e in events if e["kind"] == "anomaly"),
                "resource_summary": None,
            }
        )
        if path is not None:
            write_records(records, path)
        return records

    # -- inspection ----------------------------------------------------------

    def events(self) -> Tuple[Dict[str, Any], ...]:
        """The ring's current contents, oldest first."""
        return tuple(self._ring)

    def reset(self) -> None:
        """Drop the ring and the auto-dump budget (the enabled flag,
        bundle directory and open run are untouched)."""
        self._ring.clear()
        self._seq = 0
        self._auto_dumped = 0

    def __len__(self) -> int:
        return len(self._ring)

    def __repr__(self) -> str:
        state = "on" if self.enabled else "off"
        return f"<FlightRecorder {state}, {len(self._ring)}/{self.capacity} events>"


#: The process-wide flight recorder.  Never replaced; always on.
_RECORDER = FlightRecorder()


def get_recorder() -> FlightRecorder:
    """The process-wide flight-recorder singleton."""
    return _RECORDER
