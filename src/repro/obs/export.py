"""Exporting and rendering spans and metrics.

Two consumers besides machines, which get JSONL from the run ledger
(:meth:`repro.obs.ledger.RunLedger.write`):

* trace viewers get the **Chrome Trace Event format**
  (:func:`spans_to_chrome_trace` / :func:`write_chrome_trace`) --
  loadable in Perfetto or ``chrome://tracing``;
* humans get plain text -- the span forest indented by parentage with
  millisecond durations, and metrics through the same
  :class:`repro.report.Table` every benchmark uses.

:func:`record_strategy_steps` is the bridge from plans to traces: it
replays a strategy's steps as ``join.step`` events carrying each step's
tau -- the per-step quantity the paper's whole argument is about.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.trace import Span, Tracer, get_tracer
from repro.report import Table

__all__ = [
    "spans_to_chrome_trace",
    "write_chrome_trace",
    "render_span_tree",
    "render_metrics",
    "record_strategy_steps",
]


# -- Chrome Trace Event format -------------------------------------------------

def _json_safe(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def spans_to_chrome_trace(
    spans: Optional[Sequence[Span]] = None, process_name: str = "repro"
) -> Dict[str, Any]:
    """The span forest as a Chrome Trace Event document (a JSON-ready
    dict), loadable in Perfetto or ``chrome://tracing``.

    Every span becomes one *complete* event (``"ph": "X"``) with
    microsecond ``ts``/``dur`` relative to the earliest span (fractional
    microseconds keep the nanosecond resolution); attributes ride in
    ``args`` and the span's dotted-name prefix becomes the ``cat``
    category.  All events share one ``pid``/``tid`` -- the tracer is
    single-threaded -- so the viewer reconstructs nesting from the
    timestamps, which mirror the span tree's parentage (a parent opens
    before and closes after all of its children).  A leading metadata
    event (``"ph": "M"``) names the process.
    """
    chosen = list(spans if spans is not None else get_tracer().finished_spans())
    origin = min((s.start_ns for s in chosen), default=0)
    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 1,
            "tid": 1,
            "args": {"name": process_name},
        }
    ]
    for span in sorted(chosen, key=lambda s: (s.start_ns, s.span_id)):
        events.append(
            {
                "name": span.name,
                "cat": span.name.split(".", 1)[0],
                "ph": "X",
                "ts": (span.start_ns - origin) / 1000.0,
                "dur": span.duration_ns / 1000.0,
                "pid": 1,
                "tid": 1,
                "args": {
                    key: _json_safe(span.attributes[key])
                    for key in sorted(span.attributes)
                },
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(
    path: str,
    spans: Optional[Sequence[Span]] = None,
    process_name: str = "repro",
) -> int:
    """Write the Chrome-trace document to ``path``; returns the number of
    span events written (the metadata event is not counted)."""
    document = spans_to_chrome_trace(spans, process_name=process_name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, sort_keys=True)
        handle.write("\n")
    return len(document["traceEvents"]) - 1


def _format_attributes(attributes: Dict[str, Any]) -> str:
    parts = []
    for key in sorted(attributes):
        value = attributes[key]
        if isinstance(value, float):
            parts.append(f"{key}={value:.3f}")
        else:
            parts.append(f"{key}={value}")
    return " ".join(parts)


def render_span_tree(spans: Optional[Sequence[Span]] = None) -> str:
    """The span forest as indented text, children under parents::

        cli.optimize [2.310ms] relations=5 shape=chain
          optimize.dp [1.920ms] space=all states=31
            db.join [0.410ms] relations=2 tau=38

    Spans are ordered by start time within each level.
    """
    chosen = list(spans if spans is not None else get_tracer().finished_spans())
    by_parent: Dict[Optional[int], List[Span]] = {}
    for span in chosen:
        by_parent.setdefault(span.parent_id, []).append(span)
    known_ids = {span.span_id for span in chosen}
    lines: List[str] = []

    def walk(parent_id: Optional[int], depth: int) -> None:
        for span in sorted(by_parent.get(parent_id, ()), key=lambda s: s.start_ns):
            attrs_text = _format_attributes(span.attributes)
            suffix = f" {attrs_text}" if attrs_text else ""
            lines.append(
                f"{'  ' * depth}{span.name} "
                f"[{span.duration_ns / 1e6:.3f}ms]{suffix}"
            )
            walk(span.span_id, depth + 1)

    walk(None, 0)
    # Orphans (parent finished in a cleared tracer, etc.) still render.
    for parent_id in sorted(
        (p for p in by_parent if p is not None and p not in known_ids),
        key=lambda p: -1 if p is None else p,
    ):
        walk(parent_id, 0)
    return "\n".join(lines)


def render_metrics(registry: Optional[MetricsRegistry] = None) -> str:
    """The registry snapshot as a :class:`repro.report.Table` rendering."""
    chosen = registry if registry is not None else get_registry()
    table = Table(["metric", "labels", "value"], title="Metrics")
    for row in chosen.snapshot():
        labels = ",".join(f"{k}={v}" for k, v in sorted(row["labels"].items()))
        value = row["value"]
        if isinstance(value, dict):  # histogram summary
            value = (
                f"n={value['count']} mean={value['mean']:.3f} "
                f"min={value['min']} max={value['max']} "
                f"p50={value['p50']:.3f} p95={value['p95']:.3f} "
                f"p99={value['p99']:.3f}"
            )
        table.add_row(row["name"], labels, value)
    return table.render()


def record_strategy_steps(strategy, tracer: Optional[Tracer] = None) -> int:
    """Replay a strategy's steps as ``join.step`` events.

    Each event carries the step's rendering, its output tau, both input
    taus, and whether the step is a Cartesian product -- the paper's
    per-step accounting (``tau(S) = sum tau(s_i)``), as a trace.  Accepts
    any object with the :class:`~repro.strategy.tree.Strategy` traversal
    surface (``steps()``, ``describe()``, ``tau`` -- duck-typed to keep
    this package free of strategy imports).  Returns the number of steps
    recorded (0 when tracing is disabled).
    """
    chosen = tracer if tracer is not None else get_tracer()
    if not chosen.enabled:
        return 0
    recorded = 0
    for step in strategy.steps():
        chosen.event(
            "join.step",
            step=step.describe(),
            tau=step.tau,
            left_tau=step.left.tau,
            right_tau=step.right.tau,
            cartesian=step.step_uses_cartesian_product(),
        )
        recorded += 1
    return recorded
