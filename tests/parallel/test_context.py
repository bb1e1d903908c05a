"""The process-pool machinery itself: snapshots, jobs resolution, the
telemetry merge, and the shared-table warm phase.

Everything here runs in-process (snapshot round-trips, adopt/absorb)
or with a tiny real pool where fork is available; the driver-level
jobs=1-vs-jobs=N guarantees live in test_equivalence.py.
"""

import os

import pytest

from repro import Database, relation
from repro.errors import ReproError
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.parallel import (
    SEGMENT_PREFIX,
    DatabaseSnapshot,
    ParallelContext,
    live_segments,
    parallel_available,
    resolve_jobs,
    shared_memory_available,
    warm_connected_taus,
)

needs_fork = pytest.mark.skipif(
    not parallel_available(), reason="requires the fork start method"
)


@pytest.fixture(autouse=True)
def clean_obs_state():
    import repro.obs as obs

    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


class TestResolveJobs:
    def test_none_is_sequential(self):
        assert resolve_jobs(None) == 1

    def test_one_is_sequential(self):
        assert resolve_jobs(1) == 1

    def test_explicit_counts_pass_through_where_fork_exists(self):
        if parallel_available():
            assert resolve_jobs(4) == 4
        else:
            assert resolve_jobs(4) == 1

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) >= 1

    def test_negative_rejected(self):
        with pytest.raises(ReproError):
            resolve_jobs(-2)


@pytest.fixture
def snapshot_of():
    """Build snapshots and guarantee their segments are unlinked."""
    snapshots = []

    def build(db, **kwargs):
        snapshot = DatabaseSnapshot(db, **kwargs)
        snapshots.append(snapshot)
        return snapshot

    yield build
    for snapshot in snapshots:
        snapshot.close()
    assert live_segments() == ()


class TestDatabaseSnapshot:
    def test_round_trip_preserves_relations_and_counts(self, ex1, snapshot_of):
        restored = snapshot_of(ex1).restore()
        assert restored.scheme == ex1.scheme
        for rel in ex1.relations():
            assert restored.state_for(rel.scheme).rows == rel.rows
        assert restored.tau_of(None) == ex1.tau_of(None)

    def test_named_relations_keep_their_names(self, chain3, snapshot_of):
        restored = snapshot_of(chain3).restore()
        assert sorted(r.name for r in restored.relations()) == ["R1", "R2", "R3"]

    def test_snapshot_carries_the_tau_cache(self, chain3, snapshot_of):
        for subset in chain3.connected_subsets():
            chain3.tau_of(subset)
        warmed = chain3.cache_stats().tau_entries
        restored = snapshot_of(chain3).restore()
        assert restored.cache_stats().tau_entries == warmed
        # The inherited entries answer without recomputation.
        before = restored.cache_stats().computed
        for subset in restored.connected_subsets():
            restored.tau_of(subset)
        assert restored.cache_stats().computed == before

    def test_snapshot_is_picklable(self, ex3, snapshot_of):
        import pickle

        snapshot = snapshot_of(ex3)
        payload = pickle.dumps(snapshot)
        # Only metadata travels by value: the pickle must not scale with
        # the column data, which stays in the shared segment.
        if snapshot.segment is not None:
            assert len(payload) < snapshot.nbytes + 4096
        clone = pickle.loads(payload)
        try:
            assert clone.restore().tau_of(None) == ex3.tau_of(None)
        finally:
            clone.close()

    def test_inline_fallback_round_trips(self, ex1, snapshot_of):
        snapshot = snapshot_of(ex1, use_shared_memory=False)
        assert snapshot.segment is None
        assert snapshot.inline
        assert live_segments() == ()
        restored = snapshot.restore()
        assert restored.tau_of(None) == ex1.tau_of(None)


class TestSharedMemoryLifecycle:
    needs_shm = pytest.mark.skipif(
        not shared_memory_available(), reason="multiprocessing.shared_memory missing"
    )

    @needs_shm
    def test_segment_registered_then_unlinked(self, ex1):
        snapshot = DatabaseSnapshot(ex1)
        assert snapshot.segment is not None
        assert snapshot.segment.startswith(SEGMENT_PREFIX)
        assert snapshot.segment in live_segments()
        snapshot.close()
        assert live_segments() == ()
        if os.path.isdir("/dev/shm"):
            assert not os.path.exists("/dev/shm/" + snapshot.segment)

    @needs_shm
    def test_close_is_idempotent(self, ex1):
        snapshot = DatabaseSnapshot(ex1)
        snapshot.close()
        snapshot.close()
        assert live_segments() == ()

    @needs_shm
    def test_close_with_live_views_still_unlinks(self, ex1):
        snapshot = DatabaseSnapshot(ex1)
        restored = snapshot.restore()  # zero-copy views over the segment
        snapshot.close()
        assert live_segments() == ()
        # The restored database stays usable: its views pin the mapping.
        assert restored.tau_of(None) == ex1.tau_of(None)

    @needs_fork
    @needs_shm
    def test_pool_teardown_unlinks(self, chain3):
        with ParallelContext(db=chain3, jobs=2) as ctx:
            assert len(live_segments()) == 1
            ctx.run(_tau_probe, [((),)])
        assert live_segments() == ()

    @needs_fork
    @needs_shm
    def test_exception_mid_campaign_unlinks(self, chain3):
        with pytest.raises(RuntimeError, match="mid-campaign"):
            with ParallelContext(db=chain3, jobs=2):
                assert len(live_segments()) == 1
                raise RuntimeError("mid-campaign failure")
        assert live_segments() == ()

    @needs_shm
    def test_spawned_process_attaches_and_translates(self, ex3, tmp_path):
        """A fresh interpreter (cold interner, attach-by-name) restores
        the same database -- the spawn-viability contract."""
        import pickle
        import subprocess
        import sys

        snapshot = DatabaseSnapshot(ex3)
        try:
            blob = tmp_path / "snapshot.pkl"
            blob.write_bytes(pickle.dumps(snapshot))
            script = (
                "import pickle, sys\n"
                "snapshot = pickle.loads(open(sys.argv[1], 'rb').read())\n"
                "db = snapshot.restore()\n"
                "print(db.tau_of(None))\n"
                "snapshot.close()\n"
            )
            env = dict(os.environ)
            env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
            out = subprocess.run(
                [sys.executable, "-c", script, str(blob)],
                capture_output=True,
                text=True,
                cwd=os.getcwd(),
                env=env,
                check=True,
            )
            assert int(out.stdout.strip()) == ex3.tau_of(None)
        finally:
            snapshot.close()
        assert live_segments() == ()


def _tau_probe(db, extra, _args):
    return db.tau_of(None)


class TestTauCacheTransport:
    def test_export_import_round_trip(self, chain3):
        for subset in chain3.connected_subsets():
            chain3.tau_of(subset)
        entries = chain3.tau_cache_export()
        assert entries

        twin = Database(
            [
                relation("AB", [(1, 1), (2, 1), (3, 2)]),
                relation("BC", [(1, 5), (1, 6), (2, 7)]),
                relation("CD", [(5, 0), (7, 0), (8, 0)]),
            ]
        )
        added = twin.tau_cache_import(entries.items())
        assert added == len(entries)
        before = twin.cache_stats().computed
        for subset in twin.connected_subsets():
            twin.tau_of(subset)
        assert twin.cache_stats().computed == before

    def test_import_skips_already_cached_keys(self, chain3):
        for subset in chain3.connected_subsets():
            chain3.tau_of(subset)
        entries = chain3.tau_cache_export()
        assert chain3.tau_cache_import(entries.items()) == 0


class TestTelemetryMerge:
    def test_adopt_remaps_span_ids_under_parent(self):
        tracer = get_tracer()
        tracer.enabled = True
        with tracer.span("parent") as parent:
            payloads = (
                {"name": "w.root", "span_id": 1, "parent_id": None,
                 "start_ns": 100, "duration_ns": 50, "attributes": {}},
                {"name": "w.child", "span_id": 2, "parent_id": 1,
                 "start_ns": 110, "duration_ns": 10, "attributes": {}},
            )
            tracer.adopt(payloads, parent.span_id)
        spans = {span.name: span for span in tracer.finished_spans()}
        assert spans["w.root"].parent_id == spans["parent"].span_id
        assert spans["w.child"].parent_id == spans["w.root"].span_id
        # Re-allocated ids never collide with the parent's.
        assert len({span.span_id for span in spans.values()}) == 3

    def test_absorb_adds_counters_and_replays_histograms(self):
        registry = get_registry()
        registry.enabled = True
        registry.counter("work.items", "items").inc(3, kind="a")
        registry.histogram("work.ns", "latency").observe(10.0)
        rows = registry.drain()
        assert registry.counter("work.items", "items").series() == {}

        registry.counter("work.items", "items").inc(1, kind="a")
        registry.absorb(rows)
        merged = registry.counter("work.items", "items").series()
        assert merged[(("kind", "a"),)] == 4
        summary = registry.histogram("work.ns", "latency").series()[()]
        assert summary.count == 1 and summary.total == 10.0


@needs_fork
class TestWarmConnectedTaus:
    def test_small_tables_warm_in_process(self, chain3):
        warm_connected_taus(chain3, workers=2)
        connected = chain3.connected_subsets()
        assert chain3.cache_stats().tau_entries >= len(connected)
        before = chain3.cache_stats().computed
        for subset in connected:
            chain3.tau_of(subset)
        assert chain3.cache_stats().computed == before

    def test_pooled_warm_matches_sequential_counts(self):
        import random

        from repro.workloads.generators import (
            WorkloadSpec,
            chain_scheme,
            generate_database,
        )

        def fresh():
            return generate_database(
                chain_scheme(8), random.Random(3), WorkloadSpec(size=15, domain=5)
            )

        warmed, plain = fresh(), fresh()
        warm_connected_taus(warmed, workers=2)
        for subset in plain.connected_subsets():
            assert warmed.tau_of(subset) == plain.tau_of(subset)
