"""WorkerEnvelope merging under the **spawn** start method.

The production pool forks (see ``repro.parallel.context``), and every
other parallel test exercises that path.  The snapshot and the trace
context are nonetheless documented as spawn-viable: the snapshot
pickles the segment *name* and re-attaches, values re-intern under the
child's fresh interning table, and the :class:`TraceContext` pickles
its trace id and clock sample.  These tests hold that contract -- a
spawn-started worker's envelope must merge exactly like a forked one:
spans re-parent under the parent's span, the trace id survives the
process boundary, metrics absorb, and tau entries import.

Spawned children start from a blank interpreter, so the task function
and initializer arguments must actually pickle -- which is precisely
what makes this a different test than the fork suite: nothing is
inherited, everything round-trips.
"""

import multiprocessing
import os

import pytest

from repro import Database, relation
from repro.obs.metrics import get_registry
from repro.obs.trace import clock_skew_ns, get_tracer
from repro.parallel.context import DatabaseSnapshot, _init_worker, _invoke

needs_spawn = pytest.mark.skipif(
    "spawn" not in multiprocessing.get_all_start_methods(),
    reason="requires the spawn start method",
)


@pytest.fixture(autouse=True)
def clean_obs_state():
    import repro.obs as obs

    obs.disable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


def _chain_db() -> Database:
    return Database(
        [
            relation("AB", [(1, 1), (2, 1), (3, 2)]),
            relation("BC", [(1, 5), (1, 6), (2, 7)]),
            relation("CD", [(5, 0), (7, 0), (8, 0)]),
        ]
    )


def _traced_tau(db, extra, index):
    """Task body: one span, one counter increment, one tau computation
    (so the envelope carries all three merge channels)."""
    tracer = get_tracer()
    connected = db.connected_subsets()
    subset = connected[index % len(connected)]
    with tracer.span("spawn.task", index=index, pid=os.getpid()):
        tau = db.tau_of(subset)
    get_registry().counter("spawn.tasks", "tasks run under spawn").inc()
    return tau


@needs_spawn
class TestSpawnEnvelopes:
    def _run_pool(self, db, tasks):
        """Fan ``tasks`` over a 2-worker spawn pool wired exactly like
        ParallelContext wires fork: same initializer, same task wrapper."""
        import repro.obs as obs

        obs.enable()
        tracer = get_tracer()
        snapshot = DatabaseSnapshot(db)
        ctx = multiprocessing.get_context("spawn")
        try:
            with tracer.begin_run("spawn.parent") as root:
                trace_ctx = tracer.trace_context()
                with ctx.Pool(
                    2,
                    initializer=_init_worker,
                    initargs=(snapshot, None, True, True, None, trace_ctx),
                ) as pool:
                    results = pool.map(_invoke, tasks)
                envelopes = [envelope for _, envelope in sorted(results)]
                for envelope in envelopes:
                    skew = clock_skew_ns(trace_ctx.clock, envelope.clock)
                    tracer.adopt(envelope.spans, trace_ctx.span_id, skew_ns=skew)
                    get_registry().absorb(envelope.metrics)
                    db.tau_cache_import(envelope.tau_entries)
            return root, trace_ctx, envelopes
        finally:
            snapshot.close()

    def test_trace_id_survives_spawn(self):
        db = _chain_db()
        tasks = [(_traced_tau, i, (i,)) for i in range(4)]
        root, trace_ctx, envelopes = self._run_pool(db, tasks)
        assert trace_ctx.trace_id == root.trace_id
        for envelope in envelopes:
            assert envelope.trace_id == trace_ctx.trace_id
            assert envelope.pid != os.getpid()

    def test_spans_reparent_under_parent_span(self):
        db = _chain_db()
        tasks = [(_traced_tau, i, (i,)) for i in range(4)]
        root, trace_ctx, _ = self._run_pool(db, tasks)
        spans = get_tracer().finished_spans()
        adopted = [s for s in spans if s.name == "spawn.task"]
        assert len(adopted) == 4
        for span in adopted:
            assert span.parent_id == root.span_id
            assert span.trace_id == root.trace_id
            # Skew-normalized into the parent's clock: a worker span
            # cannot start before the pool existed.
            assert span.start_ns >= root.start_ns

    def test_metrics_and_tau_entries_merge(self):
        db = _chain_db()
        tasks = [(_traced_tau, i, (i,)) for i in range(4)]
        self._run_pool(db, tasks)
        assert get_registry().counter("spawn.tasks").value() == 4
        # The workers' fresh tau computations landed in the parent cache.
        assert db.cache_stats().tau_entries > 0

    def test_payloads_match_sequential(self):
        db = _chain_db()
        tasks = [(_traced_tau, i, (i,)) for i in range(4)]
        _, _, envelopes = self._run_pool(db, tasks)
        fresh = _chain_db()
        connected = fresh.connected_subsets()
        expected = [
            fresh.tau_of(connected[i % len(connected)]) for i in range(4)
        ]
        assert [envelope.payload for envelope in envelopes] == expected
