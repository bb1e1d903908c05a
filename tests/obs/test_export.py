"""Step replay and the human-readable renderings."""

import repro.obs as obs
from repro import database, parse_strategy, relation, tau_cost
from repro.obs.export import record_strategy_steps, render_metrics, render_span_tree
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


def _small_db():
    return database(
        relation("AB", [("p", 0), ("q", 0)], name="R1"),
        relation("BC", [(0, "w"), (1, "x")], name="R2"),
        relation("CD", [("w", 7)], name="R3"),
    )


def _traced_tracer():
    tracer = Tracer(enabled=True)
    with tracer.span("root", shape="chain"):
        with tracer.span("child"):
            pass
        tracer.event("point", tau=3)
    return tracer


class TestRenderings:
    def test_span_tree_indents_children(self):
        tracer = _traced_tracer()
        text = render_span_tree(tracer.finished_spans())
        lines = text.splitlines()
        assert lines[0].startswith("root ")
        assert "shape=chain" in lines[0]
        assert lines[1].startswith("  child ")
        assert lines[2].startswith("  point ")
        assert "tau=3" in lines[2]

    def test_render_metrics_table(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("joins").inc(3, kind="hash")
        registry.histogram("qerror").observe(2.0)
        text = render_metrics(registry)
        assert "joins" in text
        assert "kind=hash" in text
        assert "n=1 mean=2.000" in text

    def test_render_metrics_includes_percentiles(self):
        registry = MetricsRegistry(enabled=True)
        h = registry.histogram("latency")
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        text = render_metrics(registry)
        assert "p50=2.500" in text
        assert "p95=3.850" in text
        assert "p99=3.970" in text


class TestRecordStrategySteps:
    def test_replays_steps_as_events(self):
        db = _small_db()
        strategy = parse_strategy(db, "((R1 R2) R3)")
        tracer = Tracer(enabled=True)
        count = record_strategy_steps(strategy, tracer=tracer)
        events = tracer.spans_named("join.step")
        assert count == len(events) == 2
        # The events carry the paper's accounting: tau(S) = sum of step taus.
        assert sum(e.attributes["tau"] for e in events) == tau_cost(strategy)
        for event in events:
            assert set(event.attributes) == {
                "step",
                "tau",
                "left_tau",
                "right_tau",
                "cartesian",
            }

    def test_returns_zero_when_disabled(self):
        db = _small_db()
        strategy = parse_strategy(db, "((R1 R2) R3)")
        assert record_strategy_steps(strategy, tracer=Tracer()) == 0

    def test_default_tracer_is_process_singleton(self):
        db = _small_db()
        strategy = parse_strategy(db, "((R1 R2) R3)")
        obs.enable()
        recorded = record_strategy_steps(strategy)
        assert recorded == 2
        assert len(obs.get_tracer().spans_named("join.step")) == 2
