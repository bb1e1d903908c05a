"""The resource sampler: providers, metrics publication, lifecycle."""

import time

import pytest

import repro.obs as obs
from repro import Database, relation
from repro.obs.sampler import ResourceSampler, read_rss_bytes


def _db():
    return Database([relation("AB", [(1, 2), (2, 2)]), relation("BC", [(2, 3)])])


class TestProviders:
    def test_rss_is_positive(self):
        assert read_rss_bytes() > 0

    def test_sample_once_rows(self):
        sampler = ResourceSampler()
        row = sampler.sample_once()
        assert row["type"] == "resource"
        assert row["rss_bytes"] > 0
        assert row["cpu_seconds"] >= 0
        assert sampler.rows() == (row,)

    def test_custom_provider(self):
        sampler = ResourceSampler()
        sampler.add_provider("answer", lambda: 42)
        assert sampler.sample_once()["answer"] == 42

    def test_raising_provider_is_dropped_not_fatal(self):
        sampler = ResourceSampler()

        def boom():
            raise RuntimeError("no")

        sampler.add_provider("broken", boom)
        row = sampler.sample_once()
        assert "broken" not in row
        assert row["rss_bytes"] > 0

    def test_watch_database_samples_tau_cache(self):
        sampler = ResourceSampler()
        db = _db()
        sampler.watch_database(db)
        db.tau_of(db.connected_subsets()[-1])
        row = sampler.sample_once()
        assert "tau_cache_hit_rate" in row
        assert row["tau_cache_entries"] >= 1

    def test_watched_database_is_weakly_held(self):
        sampler = ResourceSampler()
        sampler.watch_database(_db())  # dropped immediately
        import gc

        gc.collect()
        assert "tau_cache_entries" not in sampler.sample_once()


class TestMetricsPublication:
    def test_disabled_registry_gets_nothing(self):
        sampler = ResourceSampler()
        sampler.sample_once()
        assert obs.get_registry().snapshot() == []

    def test_enabled_registry_gets_gauges_and_series(self):
        obs.enable()
        sampler = ResourceSampler()
        sampler.sample_once()
        registry = obs.get_registry()
        assert registry.gauge("resource.rss_bytes").value() > 0
        series = registry.histogram("resource.rss_bytes.series").value()
        assert series.count == 1

    def test_stop_publishes_peaks(self):
        obs.enable()
        sampler = ResourceSampler()
        sampler.sample_once()
        sampler.stop()
        registry = obs.get_registry()
        assert registry.gauge("resource.rss_peak_bytes").value() > 0
        assert registry.gauge("resource.cpu_seconds_total").value() >= 0


class TestLifecycle:
    def test_thread_samples_and_stops(self):
        sampler = ResourceSampler(interval=0.005)
        sampler.start()
        try:
            deadline = time.time() + 2.0
            while len(sampler.rows()) < 2 and time.time() < deadline:
                time.sleep(0.005)
        finally:
            sampler.stop()
        assert len(sampler.rows()) >= 2
        # stop() joined the thread; no further rows accumulate.
        count = len(sampler.rows())
        time.sleep(0.02)
        assert len(sampler.rows()) == count

    def test_start_is_idempotent(self):
        sampler = ResourceSampler(interval=0.01)
        assert sampler.start() is sampler
        sampler.start()
        sampler.stop()

    def test_context_manager(self):
        with ResourceSampler(interval=0.01) as sampler:
            pass
        assert len(sampler.rows()) >= 1

    def test_summary_peaks(self):
        sampler = ResourceSampler()
        sampler.add_provider("rss_bytes", lambda: 3)
        sampler.sample_once()
        sampler.add_provider("rss_bytes", lambda: 7)
        sampler.sample_once()
        sampler.add_provider("rss_bytes", lambda: 1)
        sampler.sample_once()
        summary = sampler.summary()
        assert summary["samples"] == 3
        assert summary["rss_peak_bytes"] == 7

    def test_empty_summary_is_zeros(self):
        summary = ResourceSampler().summary()
        assert summary["samples"] == 0
        assert summary["rss_peak_bytes"] == 0
