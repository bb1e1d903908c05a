"""Nested span tracing for the optimizer and execution hot paths.

The paper's argument is about an *observable* quantity -- ``tau(S)``, the
tuples produced at every step of a strategy -- so the library carries a
tracer that can watch where tuples, plans, and estimation error come
from.  The design goals, in order:

1. **Zero overhead when disabled.**  Tracing is off by default.  The
   module-level singleton (:func:`get_tracer`) is never replaced, so
   instrumented modules bind it once at import time and the hot-path
   guard is a single attribute load::

       _TRACER = get_tracer()
       ...
       if _TRACER.enabled:            # the only cost when tracing is off
           _TRACER.event("join.step", tau=n)

   Coarse, once-per-call sites may skip the guard and call
   :meth:`Tracer.span` unconditionally -- when disabled it returns a
   shared no-op context manager and records nothing.

2. **Nested spans with attributes.**  ``with tracer.span(name, **attrs)``
   opens a span; spans started inside it become its children (parentage
   is tracked with an explicit stack, no thread-locals -- the library is
   single-threaded per database).  Timings use
   :func:`time.perf_counter_ns` (monotonic).

3. **Inspectable results.**  Finished spans accumulate on the tracer in
   completion order; :mod:`repro.obs.export` renders them as JSONL or an
   indented tree.

A zero-duration :meth:`Tracer.event` records point observations (one
join step's tau, one estimator error) without ``with`` ceremony.

Every top-level operation mints a ``trace_id``
(:meth:`Tracer.begin_run`) that the spans it opens carry, so one id
joins a run's spans, its ledger records and the incidents the flight
recorder dumps during it (see docs/observability.md, "The run ledger").
"""

from __future__ import annotations

import secrets
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Span",
    "Tracer",
    "clock_sample",
    "get_tracer",
    "new_trace_id",
]


def new_trace_id() -> str:
    """A fresh 128-bit hex trace id (the W3C traceparent width)."""
    return secrets.token_hex(16)


def clock_sample() -> Tuple[int, int]:
    """A paired ``(perf_counter_ns, time_ns)`` sample, taken as close
    together as Python allows, so a monotonic reading can be placed on
    the wall clock."""
    return (time.perf_counter_ns(), time.time_ns())


class Span:
    """One finished (or in-flight) span: a named, timed tree node.

    ``attributes`` are arbitrary JSON-representable key/value pairs;
    ``parent_id`` is ``None`` for root spans.  Times are nanoseconds from
    :func:`time.perf_counter_ns` -- monotonic, comparable only within a
    process.  ``trace_id`` is the owning run's id, or ``None`` outside a
    :meth:`Tracer.begin_run` window.
    """

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "start_ns",
        "end_ns",
        "attributes",
        "trace_id",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        start_ns: int,
        attributes: Dict[str, Any],
        trace_id: Optional[str] = None,
    ):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_ns = start_ns
        self.end_ns: Optional[int] = None
        self.attributes = attributes
        self.trace_id = trace_id

    @property
    def duration_ns(self) -> int:
        """Elapsed nanoseconds (0 while the span is still open)."""
        if self.end_ns is None:
            return 0
        return self.end_ns - self.start_ns

    def set_attribute(self, key: str, value: Any) -> None:
        """Attach (or overwrite) one attribute."""
        self.attributes[key] = value

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dict (see docs/observability.md for the schema).
        ``trace_id`` is carried only when the span belongs to a run, so
        the pre-ledger schema is unchanged for standalone tracers."""
        payload = {
            "type": "span",
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_ns": self.start_ns,
            "duration_ns": self.duration_ns,
            "attributes": dict(self.attributes),
        }
        if self.trace_id is not None:
            payload["trace_id"] = self.trace_id
        return payload

    def __repr__(self) -> str:
        return (
            f"<Span {self.name} id={self.span_id} parent={self.parent_id} "
            f"{self.duration_ns / 1e6:.3f}ms {self.attributes}>"
        )


class _ActiveSpan:
    """Context manager for one enabled span."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._stack.append(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._span.end_ns = time.perf_counter_ns()
        stack = self._tracer._stack
        if stack and stack[-1] is self._span:
            stack.pop()
        self._tracer._finished.append(self._span)


class _NullSpan:
    """The shared no-op span handed out while tracing is disabled."""

    __slots__ = ()

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """Collects spans while :attr:`enabled`; otherwise a strict no-op.

    The process-wide instance from :func:`get_tracer` is never replaced,
    so modules may bind it at import time.  ``Tracer`` is also usable
    standalone in tests.
    """

    __slots__ = ("enabled", "trace_id", "_finished", "_stack", "_next_id")

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.trace_id: Optional[str] = None
        self._finished: List[Span] = []
        self._stack: List[Span] = []
        self._next_id = 1

    # -- trace context ------------------------------------------------------

    def begin_run(self, name: str, **attributes: Any):
        """Mint a fresh ``trace_id`` and open the run's root span.

        Every top-level operation (a CLI command, a profiled capture, a
        future serve request) calls this exactly once; spans opened
        inside share the id.  The id is minted even while tracing is
        disabled (it is the run's identity for the flight recorder and
        ledger, not a recording artifact); the span itself is the usual
        no-op then.
        """
        self.trace_id = new_trace_id()
        return self.span(name, **attributes)

    # -- recording ---------------------------------------------------------

    def span(self, name: str, **attributes: Any):
        """Open a span: ``with tracer.span("optimize.dp", space="all"):``.

        Returns a context manager; entering yields the :class:`Span` so
        attributes discovered mid-flight can be attached.  When disabled,
        returns a shared no-op and records nothing.
        """
        if not self.enabled:
            return _NULL_SPAN
        return _ActiveSpan(self, self._open(name, attributes))

    def event(self, name: str, **attributes: Any) -> None:
        """Record a zero-duration span (a point observation)."""
        if not self.enabled:
            return
        span = self._open(name, attributes)
        span.end_ns = span.start_ns
        self._finished.append(span)

    def _open(self, name: str, attributes: Dict[str, Any]) -> Span:
        span_id = self._next_id
        self._next_id += 1
        parent_id = self._stack[-1].span_id if self._stack else None
        return Span(
            name,
            span_id,
            parent_id,
            time.perf_counter_ns(),
            attributes,
            trace_id=self.trace_id,
        )

    # -- inspection --------------------------------------------------------

    def finished_spans(self) -> Tuple[Span, ...]:
        """All completed spans, in completion order."""
        return tuple(self._finished)

    def spans_named(self, name: str) -> Tuple[Span, ...]:
        """The completed spans with the given name."""
        return tuple(s for s in self._finished if s.name == name)

    def __len__(self) -> int:
        return len(self._finished)

    def __iter__(self) -> Iterator[Span]:
        return iter(self._finished)

    def clear(self) -> None:
        """Drop all recorded spans and the current trace id (the enabled
        flag is untouched) -- the next :meth:`begin_run` starts a fresh
        trace."""
        self._finished.clear()
        self._stack.clear()
        self._next_id = 1
        self.trace_id = None

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"<Tracer {state}, {len(self._finished)} spans>"


#: The process-wide tracer.  Never replaced -- instrumented modules bind
#: it once at import and check ``.enabled`` on their hot paths.
_TRACER = Tracer(enabled=False)


def get_tracer() -> Tracer:
    """The process-wide tracer singleton."""
    return _TRACER
