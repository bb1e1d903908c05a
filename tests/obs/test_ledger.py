"""The run ledger: the unified JSONL stream and its aggregation."""

import json

import pytest

import repro.obs as obs
from repro import Database, relation
from repro.obs.ledger import (
    RunLedger,
    diff_summaries,
    load,
    render_diff,
    render_report,
    render_summary,
    render_tail,
    summarize,
    write_records,
)
from repro.obs.recorder import get_recorder
from repro.obs.trace import get_tracer


def _db():
    return Database(
        [
            relation("AB", [(1, 1), (2, 1)]),
            relation("BC", [(1, 5), (2, 7)]),
        ]
    )


def _run_ledger(anomaly=False):
    """One complete little run: a plan, its step events, a metric."""
    obs.enable()
    with RunLedger("test.run", workload={"shape": "chain"}, argv=["x"],
                   sample=False) as ledger:
        db = _db()
        from repro.query import JoinQuery

        plan = JoinQuery(db).optimize()
        obs.record_strategy_steps(plan.strategy)
        if anomaly:
            get_recorder().anomaly("test.anomaly", detail="boom")
    return ledger


class TestRunLedger:
    def test_records_have_header_body_outcome(self):
        ledger = _run_ledger()
        records = ledger.records()
        assert records[0]["type"] == "run"
        assert records[0]["name"] == "test.run"
        assert records[0]["trace_id"] == ledger.trace_id
        assert records[0]["workload"] == {"shape": "chain"}
        assert {"python", "platform", "pid", "cpu_count"} <= set(records[0])
        assert records[-1]["type"] == "outcome"
        assert records[-1]["wall_ms"] > 0
        types = {r["type"] for r in records}
        assert {"run", "span", "metric", "event", "outcome"} <= types

    def test_all_spans_carry_the_trace_id(self):
        ledger = _run_ledger()
        spans = [r for r in ledger.records() if r["type"] == "span"]
        assert spans
        assert {s["trace_id"] for s in spans} == {ledger.trace_id}

    def test_root_span_is_the_run(self):
        ledger = _run_ledger()
        spans = [r for r in ledger.records() if r["type"] == "span"]
        roots = [s for s in spans if s["parent_id"] is None]
        assert [r["name"] for r in roots] == ["test.run"]

    def test_events_scoped_to_the_run(self):
        get_recorder().record("event", "before.the.run")
        ledger = _run_ledger()
        events = [r for r in ledger.records() if r["type"] == "event"]
        assert all(e["name"] != "before.the.run" for e in events)
        assert any(e["name"] == "run.begin" for e in events)
        assert any(e["name"] == "run.end" for e in events)

    def test_anomaly_counted_in_outcome(self):
        ledger = _run_ledger(anomaly=True)
        outcome = ledger.records()[-1]
        assert outcome["anomalies"] == 1

    def test_write_read_roundtrip(self, tmp_path):
        ledger = _run_ledger()
        path = tmp_path / "run.jsonl"
        count = ledger.write(str(path))
        records = load(str(path))
        assert len(records) == count
        assert records[0]["type"] == "run"

    def test_failed_write_leaves_the_old_file(self, tmp_path):
        class Unprintable:
            def __str__(self):
                raise RuntimeError("no text")

        path = tmp_path / "run.jsonl"
        path.write_text("old\n")
        records = [{"type": "run"}, {"type": "x", "value": Unprintable()}]
        with pytest.raises(RuntimeError):
            write_records(records, str(path))
        assert [p.name for p in tmp_path.iterdir()] == ["run.jsonl"]
        assert path.read_text() == "old\n"

    def test_sampler_runs_when_enabled(self):
        obs.enable()
        with RunLedger("test.run", sample=True) as ledger:
            pass
        resources = [r for r in ledger.records() if r["type"] == "resource"]
        assert resources  # stop() always takes a final sample
        assert ledger.records()[-1]["resource_summary"]["samples"] >= 1

    def test_recorder_context_is_stamped(self):
        with RunLedger("test.run", workload={"shape": "chain"}, sample=False) as ledger:
            assert get_recorder().run is ledger
            header = get_recorder().dump("mid.run")[0]
        assert get_recorder().run is None
        assert header["name"] == "test.run"
        assert header["trace_id"] == ledger.trace_id
        assert header["workload"] == {"shape": "chain"}

    def test_nested_ledger_restores_the_outer_run(self):
        with RunLedger("outer", sample=False) as outer:
            with RunLedger("inner", sample=False) as inner:
                assert get_recorder().run is inner
            assert get_recorder().run is outer
            header = get_recorder().dump("after.inner")[0]
        assert (header["name"], header["trace_id"]) == ("outer", outer.trace_id)

    def test_body_exception_propagates_and_marks_run_end(self):
        obs.enable()
        with pytest.raises(ValueError):
            with RunLedger("test.run", sample=False):
                raise ValueError("boom")
        end = [
            e for e in get_recorder().events() if e["name"] == "run.end"
        ][-1]
        assert end["attributes"]["error"] == "ValueError"


class TestSummarize:
    def test_summary_fields(self, tmp_path):
        ledger = _run_ledger()
        summary = summarize(ledger.records())
        assert summary["run"] == "test.run"
        assert summary["trace_id"] == ledger.trace_id
        assert summary["wall_ms"] > 0
        assert summary["spans"] >= 2
        assert summary["tau"] is not None and summary["tau"] > 0
        assert summary["anomalies"] == 0

    def test_tau_is_the_sum_of_step_events(self):
        ledger = _run_ledger()
        records = ledger.records()
        steps = [
            r for r in records
            if r["type"] == "span" and r["name"] == "join.step"
        ]
        assert summarize(records)["tau"] == sum(
            s["attributes"]["tau"] for s in steps
        )

    def test_explain_ledger_tau_is_the_profile_tau(self):
        # An explain run records no join.step events; its profile record
        # carries the plan's tau.
        records = [
            {"type": "run", "name": "cli.explain", "trace_id": "t"},
            {"type": "profile", "tau": 306},
            {"type": "outcome", "trace_id": "t", "wall_ms": 1.5},
        ]
        summary = summarize(records)
        assert (summary["run"], summary["tau"], summary["wall_ms"]) == (
            "cli.explain", 306, 1.5
        )

    def test_summarize_tolerates_removed_resource_columns(self):
        # Ledgers written before 4.0.0 carry shm_bytes/pool_queue_depth.
        records = [
            {"type": "span", "name": "root", "span_id": 1, "parent_id": None,
             "start_ns": 0, "duration_ns": 5_000_000, "attributes": {}},
            {"type": "resource", "rss_bytes": 7, "cpu_seconds": 0.5,
             "shm_bytes": 4096, "pool_queue_depth": 3, "perf_ns": 1,
             "wall_ns": 2},
        ]
        summary = summarize(records)
        assert summary["rss_peak_bytes"] == 7
        assert summary["resource_samples"] == 1
        assert "rss peak (bytes)" in render_summary(summary)
        assert render_tail(records).splitlines()[-1] == (
            "resource rss_bytes=7 cpu_seconds=0.5"
        )

    def test_diff_rows(self):
        a = {"wall_ms": 10.0, "tau": 100, "anomalies": 0}
        b = {"wall_ms": 20.0, "tau": 50, "anomalies": 1}
        rows = {row["metric"]: row for row in diff_summaries(a, b)}
        assert rows["wall_ms"]["delta"] == 10.0
        assert rows["wall_ms"]["ratio"] == 2.0
        assert rows["tau"]["ratio"] == 0.5
        assert rows["qerror_max"]["delta"] is None


class TestLoadAndRender:
    def test_load_reads_a_ledger_and_an_incident(self, tmp_path):
        ledger = _run_ledger()
        ledger_path = tmp_path / "run.jsonl"
        ledger.write(str(ledger_path))
        incident_path = tmp_path / "incident.jsonl"
        get_recorder().dump("manual", path=str(incident_path))
        records = load(str(ledger_path))
        assert records[0]["type"] == "run" and "reason" not in records[0]
        records = load(str(incident_path))
        assert records[0]["type"] == "run" and records[0]["reason"] == "manual"
        assert records[-1]["type"] == "outcome"

    def test_render_summary_mentions_the_run(self):
        ledger = _run_ledger()
        text = render_summary(summarize(ledger.records()))
        assert "test.run" in text
        assert ledger.trace_id in text

    def test_render_diff_has_both_columns(self):
        ledger = _run_ledger()
        summary = summarize(ledger.records())
        text = render_diff(summary, summary)
        assert "run A" in text and "run B" in text
        assert "wall_ms" in text

    def test_render_tail_limits_and_describes(self):
        ledger = _run_ledger()
        text = render_tail(ledger.records(), limit=3)
        assert len(text.splitlines()) == 3
        assert "outcome" in text.splitlines()[-1]

    def test_render_report_shows_reason_and_anomalies(self):
        _run_ledger(anomaly=True)
        text = render_report(get_recorder().dump("test.anomaly", {"trigger": "x"}))
        assert "reason" in text and "test.anomaly" in text
        assert "provenance.trigger" in text
        assert "Anomalies" in text
        # A run's own ledger shows its anomalies too.
        assert "Anomalies" in render_report(_run_ledger(anomaly=True).records())
