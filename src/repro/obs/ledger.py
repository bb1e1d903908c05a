"""The unified run ledger: one causal, self-describing record per run.

A *run* is one top-level operation -- a CLI command today, a serve
request tomorrow.  :class:`RunLedger` brackets it::

    with RunLedger("cli.optimize", workload=spec, attrs={...}) as ledger:
        plan = query.optimize()
    ledger.write("run.jsonl")

and on the way through:

* mints the run's ``trace_id`` and opens its root span
  (:meth:`~repro.obs.trace.Tracer.begin_run`);
* starts a :class:`~repro.obs.sampler.ResourceSampler` and stops it at
  exit, so the ledger carries the run's resource time series;
* stamps the flight recorder's context, so an anomaly mid-run dumps a
  bundle that names this run.

:meth:`RunLedger.records` (and :meth:`write`) then emit one JSONL
stream: a ``run`` header, every span, every metric row, the resource
rows, the recorder events that happened during the run, the records
appended with :meth:`RunLedger.extend` (an ``explain`` run's ``profile``
and ``operator`` rows), and an ``outcome`` footer.  Every record
self-describes through its ``"type"`` field, so a reader skips the rows
it does not know; :func:`load` reads a ledger back.

The read side aggregates ledgers for the ``repro obs`` CLI family:
:func:`summarize` boils a ledger down to the run's headline numbers
(wall time, tau, Q-error, cache hit rate, resource peaks, anomalies),
:func:`diff_summaries` compares two runs, and the ``render_*`` helpers
produce the human tables -- :func:`render_profile` the ``EXPLAIN
ANALYZE`` table that ``repro explain`` prints.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.metrics import get_registry
from repro.obs.recorder import get_recorder
from repro.obs.sampler import ResourceSampler
from repro.obs.trace import get_tracer
from repro.report import Table, render_kv

__all__ = [
    "RunLedger",
    "load",
    "summarize",
    "diff_summaries",
    "render_summary",
    "render_profile",
    "render_diff",
    "render_tail",
    "render_bundle",
]


class RunLedger:
    """Bracket one top-level operation and export its unified ledger.

    ``attrs`` become the root span's attributes; ``workload`` (a
    :class:`~repro.workloads.generators.WorkloadSpec` or plain dict) and
    ``argv`` ride into the header and the flight-recorder context.
    ``sample=False`` skips the resource sampler (tests, nested uses).
    """

    __slots__ = (
        "name",
        "workload",
        "argv",
        "attrs",
        "trace_id",
        "sampler",
        "_appended",
        "_sample",
        "_span_cm",
        "_event_floor",
        "_started_wall_ns",
        "_wall_ms",
    )

    def __init__(
        self,
        name: str,
        workload: Optional[Any] = None,
        argv: Optional[List[str]] = None,
        attrs: Optional[Dict[str, Any]] = None,
        sample: bool = True,
        sample_interval: float = 0.05,
    ):
        if workload is not None and hasattr(workload, "to_dict"):
            workload = workload.to_dict()
        self.name = name
        self.workload = dict(workload) if workload else {}
        self.argv = list(argv) if argv is not None else list(sys.argv[1:])
        self.attrs = dict(attrs or {})
        self.trace_id: Optional[str] = None
        self.sampler = ResourceSampler(interval=sample_interval)
        self._appended: List[Dict[str, Any]] = []
        self._sample = sample
        self._span_cm = None
        self._event_floor = 0
        self._started_wall_ns = 0
        self._wall_ms: Optional[float] = None

    def __enter__(self) -> "RunLedger":
        tracer = get_tracer()
        recorder = get_recorder()
        self._started_wall_ns = time.time_ns()
        events = recorder.events()
        self._event_floor = events[-1]["seq"] if events else 0
        self._span_cm = tracer.begin_run(self.name, **self.attrs)
        self._span_cm.__enter__()
        self.trace_id = tracer.trace_id
        recorder.set_context(
            run=self.name,
            trace_id=self.trace_id,
            workload=self.workload,
            argv=self.argv,
        )
        recorder.record("marker", "run.begin", run=self.name, trace_id=self.trace_id)
        if self._sample:
            self.sampler.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        span_cm = self._span_cm
        self._span_cm = None
        if span_cm is not None:
            span_cm.__exit__(exc_type, exc, tb)
        if self._sample:
            self.sampler.stop()
        self._wall_ms = (time.time_ns() - self._started_wall_ns) / 1e6
        recorder = get_recorder()
        recorder.record(
            "marker",
            "run.end",
            run=self.name,
            trace_id=self.trace_id,
            error=None if exc_type is None else exc_type.__name__,
        )

    # -- export --------------------------------------------------------------

    def _run_events(self) -> List[Dict[str, Any]]:
        """The recorder events that happened during this run (the ring
        is process-global; the seq floor scopes it)."""
        return [
            dict(event, type="event")
            for event in get_recorder().events()
            if event["seq"] > self._event_floor
        ]

    def extend(self, records: Iterable[Dict[str, Any]]) -> None:
        """Append JSON-ready records (each with its ``"type"``), written
        after the events and before the outcome -- how an ``explain``
        run's :meth:`repro.obs.profile.RunReport.records` join the
        ledger."""
        self._appended.extend(records)

    def records(self) -> List[Dict[str, Any]]:
        """The full ledger, JSON-ready: header, spans, metrics,
        resources, events, appended records, outcome."""
        events = self._run_events()
        anomalies = [e for e in events if e["kind"] == "anomaly"]
        header = {
            "type": "run",
            "name": self.name,
            "trace_id": self.trace_id,
            "workload": dict(self.workload),
            "argv": list(self.argv),
            "started_wall_ns": self._started_wall_ns,
            "python": sys.version.split()[0],
        }
        outcome = {
            "type": "outcome",
            "trace_id": self.trace_id,
            "wall_ms": self._wall_ms,
            "anomalies": len(anomalies),
            "resource_summary": self.sampler.summary() if self._sample else None,
        }
        records: List[Dict[str, Any]] = [header]
        records.extend(span.to_dict() for span in get_tracer().finished_spans())
        records.extend(get_registry().snapshot())
        if self._sample:
            records.extend(dict(row) for row in self.sampler.rows())
        records.extend(events)
        records.extend(self._appended)
        records.append(outcome)
        return records

    def write(self, path: str) -> int:
        """Write the ledger as JSONL to ``path``; returns the number of
        records written."""
        records = self.records()
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True, default=str) + "\n")
        return len(records)

    def __repr__(self) -> str:
        return f"<RunLedger {self.name} trace={self.trace_id}>"


# -- reading and aggregation ---------------------------------------------------

def load(path: str) -> Tuple[str, Any]:
    """Open either obs artifact by sniffing its content.

    Returns ``("bundle", dict)`` for a flight-recorder bundle and
    ``("ledger", records)`` for a ledger / obs JSONL file -- the
    ``repro obs`` commands accept both without a format flag.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        document = json.loads(text)
    except json.JSONDecodeError:
        document = None
    if isinstance(document, dict) and document.get("type") == "flight_bundle":
        return "bundle", document
    if isinstance(document, dict):
        return "ledger", [document]
    return "ledger", [
        json.loads(line) for line in text.splitlines() if line.strip()
    ]


def _metric_rows(records: Sequence[Dict[str, Any]]) -> Dict[str, List[Dict[str, Any]]]:
    rows: Dict[str, List[Dict[str, Any]]] = {}
    for record in records:
        if record.get("type") == "metric":
            rows.setdefault(record["name"], []).append(record)
    return rows


def _counter_total(metrics, name: str) -> float:
    return sum(row.get("value") or 0 for row in metrics.get(name, ()))


def summarize(records: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """One ledger's headline numbers, ready for :func:`render_summary`
    and :func:`diff_summaries`.

    Sections a ledger lacks summarize to ``None``/0.  ``tau`` is the
    ``profile`` record's plan tau on an ``explain`` ledger, and the sum
    of the ``join.step`` events otherwise.
    """
    header = next((r for r in records if r.get("type") == "run"), {})
    outcome = next((r for r in records if r.get("type") == "outcome"), {})
    profile = next((r for r in records if r.get("type") == "profile"), None)
    spans = [r for r in records if r.get("type") == "span"]
    resources = [r for r in records if r.get("type") == "resource"]
    events = [r for r in records if r.get("type") == "event"]
    metrics = _metric_rows(records)

    steps = [s for s in spans if s["name"] == "join.step"]
    if profile is not None:
        tau = profile["tau"]
    else:
        tau = sum(s["attributes"].get("tau", 0) for s in steps) if steps else None

    qerror = metrics.get("estimator.qerror")
    qerror_max = qerror_p50 = None
    if qerror:
        values = [row["value"] for row in qerror if isinstance(row.get("value"), dict)]
        if values:
            qerror_max = max(v.get("max") or 0 for v in values)
            qerror_p50 = max(v.get("p50") or 0 for v in values)

    hits = _counter_total(metrics, "db.subset_join.cache_hits")
    computed = _counter_total(metrics, "db.subset_join.computed")
    cache_hit_rate = hits / (hits + computed) if (hits + computed) else None

    degradations = [
        {
            "where": s["attributes"].get("where"),
            "trigger": s["attributes"].get("trigger"),
        }
        for s in spans
        if s["name"] == "runtime.degraded"
    ]

    def resource_peak(name: str) -> Optional[float]:
        values = [r.get(name) for r in resources if r.get(name) is not None]
        return max(values) if values else None

    return {
        "run": header.get("name"),
        "trace_id": header.get("trace_id"),
        "workload": header.get("workload"),
        "wall_ms": outcome.get("wall_ms"),
        "spans": len(spans),
        "tau": tau,
        "qerror_max": qerror_max,
        "qerror_p50": qerror_p50,
        "cache_hit_rate": cache_hit_rate,
        "degradations": degradations,
        "anomalies": sum(1 for e in events if e.get("kind") == "anomaly"),
        "rss_peak_bytes": resource_peak("rss_bytes"),
        "cpu_seconds_total": resource_peak("cpu_seconds"),
        "resource_samples": len(resources),
    }


#: The numeric summary keys ``repro obs diff`` compares, in print order.
DIFF_KEYS: Tuple[str, ...] = (
    "wall_ms",
    "tau",
    "qerror_max",
    "cache_hit_rate",
    "spans",
    "anomalies",
    "rss_peak_bytes",
    "cpu_seconds_total",
)


def diff_summaries(
    a: Dict[str, Any], b: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """Side-by-side rows for two run summaries: value A, value B, the
    delta, and the B/A ratio (``None`` where either side is missing)."""
    rows = []
    for key in DIFF_KEYS:
        va, vb = a.get(key), b.get(key)
        delta = ratio = None
        if isinstance(va, (int, float)) and isinstance(vb, (int, float)):
            delta = vb - va
            ratio = vb / va if va else None
        rows.append({"metric": key, "a": va, "b": vb, "delta": delta, "ratio": ratio})
    return rows


# -- rendering -----------------------------------------------------------------

def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def render_summary(summary: Dict[str, Any]) -> str:
    """One run's summary as the ``repro obs report`` key/value block."""
    pairs = [
        ("run", summary.get("run")),
        ("trace_id", summary.get("trace_id")),
        ("wall (ms)", _fmt(summary.get("wall_ms"))),
        ("spans", summary.get("spans")),
        ("tau", _fmt(summary.get("tau")) if summary.get("tau") is not None else "-"),
        ("q-error max", _fmt(summary.get("qerror_max"))),
        ("cache hit rate", _fmt(summary.get("cache_hit_rate"))),
        ("anomalies", summary.get("anomalies")),
        ("rss peak (bytes)", _fmt(summary.get("rss_peak_bytes"))),
        ("cpu (s)", _fmt(summary.get("cpu_seconds_total"))),
        ("resource samples", summary.get("resource_samples")),
    ]
    workload = summary.get("workload")
    if workload:
        pairs.append(
            ("workload", ",".join(f"{k}={v}" for k, v in sorted(workload.items())))
        )
    for degradation in summary.get("degradations") or ():
        pairs.append(
            (
                "degraded",
                f"{degradation.get('trigger')} at {degradation.get('where')}",
            )
        )
    return render_kv(pairs)


def render_profile(records: Sequence[Dict[str, Any]]) -> str:
    """The ``EXPLAIN ANALYZE`` table and its summary, from a ledger's
    ``profile`` record and its ``operator`` records in execution order.
    :meth:`repro.obs.profile.RunReport.render` prints a report through
    this function and ``repro obs report`` reprints a ledger through it,
    so the two texts cannot drift apart."""
    profile = next(r for r in records if r.get("type") == "profile")
    table = Table(
        [
            "step",
            "operator",
            "est tau",
            "actual tau",
            "q-error",
            "time (ms)",
            "probes",
            "cmps",
            "out",
            "cache hit",
        ],
        title=f"EXPLAIN ANALYZE: {profile['plan']}",
    )
    operators = (r for r in records if r.get("type") == "operator")
    for index, row in enumerate(operators, start=1):
        table.add_row(
            f"{index}. {row['step']}" + (" [CP]" if row["cartesian"] else ""),
            row["operator"],
            f"{row['estimated']:.1f}",
            row["actual"],
            f"{row['q_error']:.2f}",
            f"{row['wall_ms']:.3f}",
            row["probes"],
            row["comparisons"],
            row["output_tuples"],
            f"{row['cache_hit_rate'] * 100:.0f}%",
        )
    return table.render() + "\n\n" + render_kv(profile["summary"])


def render_diff(a: Dict[str, Any], b: Dict[str, Any]) -> str:
    """Two summaries side by side (``repro obs diff``)."""
    table = Table(
        ["metric", "run A", "run B", "delta", "B/A"],
        title=f"obs diff: {a.get('trace_id') or 'A'} vs {b.get('trace_id') or 'B'}",
    )
    for row in diff_summaries(a, b):
        table.add_row(
            row["metric"],
            _fmt(row["a"]),
            _fmt(row["b"]),
            _fmt(row["delta"]),
            _fmt(row["ratio"]),
        )
    return table.render()


def _describe_record(record: Dict[str, Any]) -> str:
    kind = record.get("type", "?")
    if kind == "run":
        return f"run {record.get('name')} trace={record.get('trace_id')}"
    if kind == "span":
        return (
            f"span {record['name']} [{record.get('duration_ns', 0) / 1e6:.3f}ms] "
            f"id={record.get('span_id')} parent={record.get('parent_id')}"
        )
    if kind == "metric":
        value = record.get("value")
        if isinstance(value, dict):
            value = f"n={value.get('count')} mean={value.get('mean'):.3f}"
        labels = ",".join(f"{k}={v}" for k, v in sorted((record.get("labels") or {}).items()))
        return f"metric {record['name']}{{{labels}}} {value}"
    if kind == "resource":
        parts = [
            f"{k}={record[k]}"
            for k in ("rss_bytes", "cpu_seconds")
            if k in record
        ]
        return "resource " + " ".join(parts)
    if kind == "event":
        return f"{record.get('kind')} {record.get('name')}"
    if kind == "outcome":
        return (
            f"outcome wall={_fmt(record.get('wall_ms'))}ms "
            f"anomalies={record.get('anomalies')}"
        )
    return kind


def render_tail(records: Sequence[Dict[str, Any]], limit: int = 20) -> str:
    """The last ``limit`` ledger records, one line each (``repro obs
    tail``)."""
    chosen = list(records)[-limit:]
    return "\n".join(_describe_record(record) for record in chosen)


def render_bundle(bundle: Dict[str, Any]) -> str:
    """A flight-recorder bundle as a human report (``repro obs report``
    on a bundle file)."""
    environment = bundle.get("environment") or {}
    context = bundle.get("context") or {}
    pairs = [
        ("reason", bundle.get("reason")),
        ("trace_id", bundle.get("trace_id")),
        ("run", context.get("run")),
        ("python", environment.get("python")),
        ("platform", environment.get("platform")),
        ("pid", environment.get("pid")),
        ("events", len(bundle.get("events") or ())),
        ("spans", len(bundle.get("spans") or ())),
        ("metrics", len(bundle.get("metrics") or ())),
        ("resource samples", len(bundle.get("resources") or ())),
    ]
    workload = context.get("workload")
    if workload:
        pairs.append(
            ("workload", ",".join(f"{k}={v}" for k, v in sorted(workload.items())))
        )
    provenance = bundle.get("provenance")
    if provenance:
        pairs.extend((f"provenance.{k}", v) for k, v in sorted(provenance.items()))
    lines = [render_kv(pairs)]
    anomalies = [
        e for e in bundle.get("events") or () if e.get("kind") == "anomaly"
    ]
    if anomalies:
        table = Table(["seq", "anomaly", "attributes"], title="Anomalies")
        for event in anomalies:
            attrs = {
                k: v
                for k, v in (event.get("attributes") or {}).items()
                if k != "provenance" and v is not None
            }
            table.add_row(
                event.get("seq"),
                event.get("name"),
                ",".join(f"{k}={v}" for k, v in sorted(attrs.items())),
            )
        lines.append("")
        lines.append(table.render())
    return "\n".join(lines)
