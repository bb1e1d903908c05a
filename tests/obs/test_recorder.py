"""The flight recorder: the bounded ring, anomaly dumping, and
incidents."""

import pytest

import repro.obs as obs
from repro.obs.ledger import RunLedger, load
from repro.obs.recorder import (
    MAX_AUTO_BUNDLES,
    FlightRecorder,
    get_recorder,
)
from repro.obs.trace import get_tracer


class TestRing:
    def test_record_appends_structured_events(self):
        recorder = FlightRecorder()
        recorder.record("marker", "run.begin", run="x")
        recorder.record("event", "runtime.exhausted", trigger="deadline")
        first, second = recorder.events()
        assert first["kind"] == "marker"
        assert first["name"] == "run.begin"
        assert first["attributes"] == {"run": "x"}
        assert second["seq"] == first["seq"] + 1
        assert second["wall_ns"] >= first["wall_ns"]

    def test_ring_is_bounded(self):
        recorder = FlightRecorder(capacity=4)
        for i in range(10):
            recorder.record("event", "e", i=i)
        events = recorder.events()
        assert len(events) == 4
        assert [e["attributes"]["i"] for e in events] == [6, 7, 8, 9]
        # Sequence numbers keep counting even as events fall off.
        assert events[-1]["seq"] == 10

    def test_disabled_recorder_records_nothing(self):
        recorder = FlightRecorder(enabled=False)
        recorder.record("event", "e")
        assert recorder.anomaly("a") is None
        assert recorder.events() == ()

    def test_reset_clears_ring_and_budget(self, tmp_path):
        recorder = FlightRecorder()
        recorder.set_bundle_dir(str(tmp_path))
        for i in range(MAX_AUTO_BUNDLES):
            recorder.anomaly(f"a.{i}")
        recorder.reset()
        assert len(recorder) == 0
        assert recorder.anomaly("after.reset") is not None

    def test_recorder_is_always_on_singleton(self):
        assert get_recorder() is get_recorder()
        assert get_recorder().enabled


class TestAnomalies:
    def test_anomaly_lands_in_ring_without_directory(self):
        recorder = FlightRecorder()
        assert recorder.anomaly("optimizer.degraded", where="dp") is None
        (event,) = recorder.events()
        assert event["kind"] == "anomaly"
        assert event["attributes"]["where"] == "dp"

    def test_anomaly_counts_metric_when_registry_enabled(self):
        obs.enable()
        recorder = FlightRecorder()
        recorder.anomaly("optimizer.degraded")
        counter = obs.get_registry().counter("obs.anomalies")
        assert counter.value(name="optimizer.degraded") == 1

    def test_anomaly_dumps_bundle_into_directory(self, tmp_path):
        recorder = get_recorder()
        recorder.set_bundle_dir(str(tmp_path))
        with RunLedger("cli.optimize", sample=False) as ledger:
            path = recorder.anomaly(
                "optimizer.degraded", provenance={"trigger": "deadline"}
            )
        assert path is not None
        assert path.endswith(f"flight-{ledger.trace_id}-01-optimizer-degraded.jsonl")
        header, *_, outcome = load(path)
        assert header["type"] == "run"
        assert header["reason"] == "optimizer.degraded"
        assert header["provenance"] == {"trigger": "deadline"}
        assert header["name"] == "cli.optimize"
        assert outcome["type"] == "outcome" and outcome["anomalies"] == 1

    def test_auto_dump_cap(self, tmp_path):
        recorder = FlightRecorder()
        recorder.set_bundle_dir(str(tmp_path))
        paths = [recorder.anomaly(f"a.{i}") for i in range(MAX_AUTO_BUNDLES + 3)]
        written = [p for p in paths if p is not None]
        assert len(written) == MAX_AUTO_BUNDLES
        assert len(list(tmp_path.iterdir())) == MAX_AUTO_BUNDLES

    def test_bundle_dir_falls_back_to_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_BUNDLE_DIR", str(tmp_path))
        recorder = FlightRecorder()
        assert recorder.bundle_dir == str(tmp_path)
        recorder.set_bundle_dir("/elsewhere")
        assert recorder.bundle_dir == "/elsewhere"


class TestBundles:
    def test_dump_is_self_contained(self, tmp_path):
        obs.enable()
        tracer = get_tracer()
        with tracer.begin_run("cli.optimize"):
            obs.get_registry().counter("c", "help").inc(3)
        recorder = FlightRecorder()
        recorder.record("marker", "run.begin")
        path = tmp_path / "incident.jsonl"
        records = recorder.dump("manual", path=str(path))
        header = records[0]
        assert header["type"] == "run" and header["name"] is None
        assert header["reason"] == "manual"
        assert header["trace_id"] == tracer.trace_id
        assert header["python"] and header["platform"] and header["pid"]
        by_type = {}
        for record in records:
            by_type.setdefault(record["type"], []).append(record)
        assert by_type["span"][0]["name"] == "cli.optimize"
        assert by_type["metric"][0]["name"] == "c"
        assert len(by_type["event"]) == 1
        assert records[-1]["type"] == "outcome"
        # The written file reads back as the same records.
        assert load(str(path)) == records

    def test_dump_includes_attached_sampler_rows(self):
        with RunLedger("test.run", sample=False) as ledger:
            ledger.sampler.add_provider("rss_bytes", lambda: 1)
            ledger.sampler.sample_once()
            records = get_recorder().dump("manual")
        (row,) = [r for r in records if r["type"] == "resource"]
        assert row["rss_bytes"] == 1

    def test_dump_after_a_run_names_no_run(self):
        with RunLedger("first.run", sample=True):
            pass
        records = get_recorder().dump("later")
        assert records[0]["name"] is None
        assert [r for r in records if r["type"] == "resource"] == []


class TestRuntimeIntegration:
    """The hooks wired in PR-wide: degradations and worker failures
    leave anomalies on the process-wide recorder."""

    def test_degrade_to_greedy_records_anomaly(self):
        from repro.optimizer.fallback import degrade_to_greedy
        from repro.optimizer.spaces import SearchSpace
        from repro.runtime import Runtime
        from repro import Database, relation

        db = Database([relation("AB", [(1, 2)]), relation("BC", [(2, 3)])])
        runtime = Runtime.with_limits(budget=1)
        result = degrade_to_greedy(
            db, SearchSpace.ALL, "budget", covered=0, runtime=runtime, where="dp"
        )
        assert result.degradation is not None
        anomalies = [
            e for e in get_recorder().events() if e["kind"] == "anomaly"
        ]
        assert any(e["name"] == "optimizer.degraded" for e in anomalies)
        (event,) = [e for e in anomalies if e["name"] == "optimizer.degraded"]
        assert event["attributes"]["provenance"]["trigger"] == "budget"
