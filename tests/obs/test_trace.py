"""The span tracer: nesting, attributes, timings, the disabled no-op,
and the run's trace id."""

import pytest

import repro.obs as obs
from repro.obs.trace import (
    Span,
    Tracer,
    _NULL_SPAN,
    get_tracer,
    new_trace_id,
)


class TestDisabledTracer:
    def test_disabled_by_default(self):
        assert not get_tracer().enabled
        assert not obs.is_enabled()

    def test_span_returns_shared_null_span(self):
        tracer = Tracer()
        assert tracer.span("anything") is _NULL_SPAN
        assert tracer.span("else", k=1) is _NULL_SPAN

    def test_null_span_records_nothing(self):
        tracer = Tracer()
        with tracer.span("root", a=1) as span:
            span.set_attribute("b", 2)
            with tracer.span("child"):
                pass
        tracer.event("point", tau=3)
        assert len(tracer) == 0
        assert tracer.finished_spans() == ()


class TestEnabledTracer:
    def test_records_span_with_attributes(self):
        tracer = Tracer(enabled=True)
        with tracer.span("optimize.dp", space="all") as span:
            span.set_attribute("states", 7)
        (recorded,) = tracer.finished_spans()
        assert recorded.name == "optimize.dp"
        assert recorded.attributes == {"space": "all", "states": 7}
        assert recorded.parent_id is None
        assert recorded.duration_ns >= 0
        assert recorded.end_ns >= recorded.start_ns

    def test_nesting_sets_parent_ids(self):
        tracer = Tracer(enabled=True)
        with tracer.span("root") as root:
            with tracer.span("child") as child:
                with tracer.span("grandchild") as grandchild:
                    pass
            with tracer.span("sibling") as sibling:
                pass
        assert child.parent_id == root.span_id
        assert grandchild.parent_id == child.span_id
        assert sibling.parent_id == root.span_id
        # Completion order: innermost first.
        names = [s.name for s in tracer]
        assert names == ["grandchild", "child", "sibling", "root"]

    def test_span_ids_are_unique(self):
        tracer = Tracer(enabled=True)
        for _ in range(5):
            with tracer.span("s"):
                pass
        ids = [s.span_id for s in tracer.finished_spans()]
        assert len(set(ids)) == 5

    def test_event_is_zero_duration_child(self):
        tracer = Tracer(enabled=True)
        with tracer.span("root") as root:
            tracer.event("join.step", tau=12)
        event = tracer.spans_named("join.step")[0]
        assert event.duration_ns == 0
        assert event.parent_id == root.span_id
        assert event.attributes == {"tau": 12}

    def test_span_survives_exception(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        (span,) = tracer.finished_spans()
        assert span.name == "doomed"
        assert span.end_ns is not None
        assert tracer._stack == []

    def test_spans_named_filters(self):
        tracer = Tracer(enabled=True)
        tracer.event("a")
        tracer.event("b")
        tracer.event("a")
        assert len(tracer.spans_named("a")) == 2
        assert len(tracer.spans_named("missing")) == 0

    def test_clear_drops_spans_keeps_flag(self):
        tracer = Tracer(enabled=True)
        tracer.event("x")
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.enabled


class TestSpanObject:
    def test_to_dict_schema(self):
        span = Span("db.join", span_id=3, parent_id=1, start_ns=100, attributes={"tau": 9})
        span.end_ns = 350
        assert span.to_dict() == {
            "type": "span",
            "name": "db.join",
            "span_id": 3,
            "parent_id": 1,
            "start_ns": 100,
            "duration_ns": 250,
            "attributes": {"tau": 9},
        }

    def test_open_span_duration_is_zero(self):
        span = Span("open", span_id=1, parent_id=None, start_ns=5, attributes={})
        assert span.duration_ns == 0


class TestTraceContext:
    def test_new_trace_ids_are_unique_hex(self):
        ids = {new_trace_id() for _ in range(32)}
        assert len(ids) == 32
        assert all(len(t) == 32 and int(t, 16) >= 0 for t in ids)

    def test_begin_run_mints_id_and_stamps_spans(self):
        tracer = Tracer(enabled=True)
        with tracer.begin_run("cli.optimize", shape="chain") as root:
            with tracer.span("child"):
                pass
        assert tracer.trace_id is not None
        assert root.trace_id == tracer.trace_id
        assert all(s.trace_id == tracer.trace_id for s in tracer.finished_spans())

    def test_begin_run_mints_even_while_disabled(self):
        # The id is the run's identity for the recorder and ledger, not
        # a recording artifact.
        tracer = Tracer(enabled=False)
        with tracer.begin_run("cli.optimize"):
            pass
        assert tracer.trace_id is not None
        assert tracer.finished_spans() == ()

    def test_consecutive_runs_get_fresh_ids(self):
        tracer = Tracer(enabled=True)
        with tracer.begin_run("a"):
            pass
        first = tracer.trace_id
        with tracer.begin_run("b"):
            pass
        assert tracer.trace_id != first

    def test_clear_resets_trace_id(self):
        tracer = Tracer(enabled=True)
        with tracer.begin_run("run"):
            pass
        tracer.clear()
        assert tracer.trace_id is None

    def test_to_dict_carries_trace_id_only_when_present(self):
        span = Span("s", span_id=1, parent_id=None, start_ns=0, attributes={})
        span.end_ns = 0
        assert "trace_id" not in span.to_dict()
        stamped = Span(
            "s", span_id=1, parent_id=None, start_ns=0, attributes={},
            trace_id="ff" * 16,
        )
        stamped.end_ns = 0
        assert stamped.to_dict()["trace_id"] == "ff" * 16


class TestModuleToggles:
    def test_enable_disable_roundtrip(self):
        obs.enable()
        assert obs.is_enabled()
        assert get_tracer().enabled
        obs.disable()
        assert not obs.is_enabled()

    def test_get_tracer_is_stable_singleton(self):
        assert get_tracer() is get_tracer()

    def test_observed_context_restores_state(self):
        assert not obs.is_enabled()
        with obs.observed() as tracer:
            assert obs.is_enabled()
            tracer.event("inside")
        assert not obs.is_enabled()
        # Spans recorded inside the block are kept.
        assert len(get_tracer().spans_named("inside")) == 1

    def test_observed_restores_state_when_body_raises(self):
        # Regression: the previous enabled/disabled state must come back
        # even when the body raises -- for both flags, from both states.
        assert not obs.is_enabled()
        with pytest.raises(RuntimeError, match="boom"):
            with obs.observed() as tracer:
                tracer.event("doomed")
                raise RuntimeError("boom")
        assert not obs.is_enabled()
        assert not obs.get_registry().enabled
        # Spans recorded before the crash are kept.
        assert len(get_tracer().spans_named("doomed")) == 1

        obs.enable()
        with pytest.raises(ValueError):
            with obs.observed():
                raise ValueError
        assert obs.is_enabled()
        assert obs.get_registry().enabled
