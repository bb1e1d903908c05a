"""Prometheus export, step replay, and the human-readable renderings."""

import repro.obs as obs
from repro import database, parse_strategy, relation, tau_cost
from repro.obs.export import (
    metrics_to_prometheus,
    record_strategy_steps,
    render_metrics,
    render_span_tree,
    write_prometheus,
)
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


class TestPrometheus:
    def test_counter_gets_total_suffix_and_type(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("join.probes", "hash-table probes").inc(7)
        text = metrics_to_prometheus(registry)
        assert "# HELP repro_join_probes_total hash-table probes" in text
        assert "# TYPE repro_join_probes_total counter" in text
        assert "repro_join_probes_total 7" in text
        assert text.endswith("\n")

    def test_gauge_keeps_bare_name(self):
        registry = MetricsRegistry(enabled=True)
        registry.gauge("optimizer.depth").set(3)
        text = metrics_to_prometheus(registry)
        assert "# TYPE repro_optimizer_depth gauge" in text
        assert "repro_optimizer_depth 3" in text

    def test_labels_sorted_and_escaped(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("joins").inc(2, kind='ha"sh', space="all")
        text = metrics_to_prometheus(registry)
        assert 'repro_joins_total{kind="ha\\"sh",space="all"} 2' in text

    def test_histogram_exports_as_summary_with_quantiles(self):
        registry = MetricsRegistry(enabled=True)
        h = registry.histogram("qerror")
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        text = metrics_to_prometheus(registry)
        assert "# TYPE repro_qerror summary" in text
        assert 'repro_qerror{quantile="0.5"} 2.0' in text
        assert 'repro_qerror{quantile="0.95"}' in text
        assert 'repro_qerror{quantile="0.99"}' in text
        assert "repro_qerror_sum 6.0" in text
        assert "repro_qerror_count 3" in text

    def test_label_values_escape_backslash_quote_newline(self):
        # Exposition format: label values are quoted strings, so all
        # three of \ " \n must be escaped -- and in that order, so the
        # backslash introduced by the quote escape is not re-escaped.
        registry = MetricsRegistry(enabled=True)
        registry.counter("paths").inc(1, path='C:\\tmp\n"x"')
        text = metrics_to_prometheus(registry)
        assert 'repro_paths_total{path="C:\\\\tmp\\n\\"x\\""} 1' in text

    def test_help_escapes_backslash_and_newline_only(self):
        # HELP text is NOT a quoted string: double quotes must appear
        # verbatim, while backslash and newline are escaped.
        registry = MetricsRegistry(enabled=True)
        registry.counter("c", 'says "hi"\\ and\nmore').inc(1)
        text = metrics_to_prometheus(registry)
        assert '# HELP repro_c_total says "hi"\\\\ and\\nmore' in text
        # The exposition stays one line per sample.
        assert all(
            line.startswith(("#", "repro_")) for line in text.splitlines()
        )

    def test_custom_prefix(self):
        registry = MetricsRegistry(enabled=True)
        registry.counter("x").inc()
        assert "app_x_total 1" in metrics_to_prometheus(registry, prefix="app_")

    def test_empty_registry_yields_empty_string(self):
        assert metrics_to_prometheus(MetricsRegistry(enabled=True)) == ""

    def test_write_prometheus_counts_lines(self, tmp_path):
        registry = MetricsRegistry(enabled=True)
        registry.counter("joins").inc(1)
        path = tmp_path / "metrics.prom"
        lines = write_prometheus(str(path), registry)
        body = path.read_text(encoding="utf-8")
        assert lines == len(body.splitlines()) == 2  # TYPE + sample
        assert body.endswith("\n")


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
