"""The process-pool execution layer: snapshots, workers, and merging.

Four problems make naive ``multiprocessing.Pool`` use wrong or slow
here, and this module solves each once so the sweep drivers stay small:

1. **Databases are not directly picklable.**  Row values are interned
   into process-wide id tables (:mod:`repro.relational.columnar`), so a
   raw id tuple means nothing in another process.  A
   :class:`DatabaseSnapshot` captures each relation's columnar table
   *plus* the slice of the interning table it references; ``restore()``
   re-interns the values in the worker and translates the id tuples.
   The snapshot is built once per :class:`ParallelContext`, shipped to
   each worker through the pool initializer, and rehydrated once per
   worker -- tasks then reference the shared worker database instead of
   pickling relations per task.

2. **Copying the database per worker starves the fan-out.**  The column
   data therefore lives in a ``multiprocessing.shared_memory`` segment:
   the snapshot packs every relation into one flat row-major ``int64``
   buffer, writes it to the segment once at pool creation, and each
   worker *attaches* -- a ``memoryview`` cast over the same physical
   pages, no unpickling, no copy-on-write of refcounted row objects.
   Only the interner slice, the tau-cache, and per-table metadata
   travel by value.  ``restore()`` is O(#tables), not O(#rows); column
   blocks decode lazily in whichever worker actually touches them.  The
   segment's lifecycle is explicit: created in
   :meth:`ParallelContext.__enter__`, unlinked in ``__exit__`` (even on
   exceptions), with a module-level registry plus ``atexit`` guard so a
   crashed fan-out cannot leave ``/dev/shm`` residue behind
   (:func:`live_segments` is the test hook).

3. **Telemetry lives in per-process singletons.**  Work done in a
   worker would silently vanish from the parent's tracer, metrics
   registry, and tau-cache.  Each task result therefore travels inside
   a :class:`WorkerEnvelope` carrying the spans, metric rows, and fresh
   tau-cache entries the task produced; :meth:`ParallelContext.run`
   merges them on arrival (``Tracer.adopt``, ``MetricsRegistry.absorb``,
   ``Database.tau_cache_import``), so ``jobs=4`` runs are observable
   through the same `obs` surface as sequential ones.

4. **Cancellation must cross process boundaries.**  A runtime's
   :class:`~repro.runtime.CancelToken` is backed by a shared cell
   (:meth:`~repro.runtime.CancelToken.share`) before the fork, and each
   worker runs under a :meth:`~repro.runtime.Runtime.worker_clone` of
   the runtime, so a cancel on either side reaches every worker's next
   ``charge()``.

Workers are **forked** by default: fork inherits the interning tables,
the kernel switch, ``PYTHONHASHSEED``, and the already-attached
shared-memory mapping, and lets the pool initializer receive
non-picklable extras (closures, cost functions) for free.  The snapshot
itself is nevertheless spawn-viable: its pickled form carries the
segment *name*, ``restore()`` re-attaches by name, and the interner
slice re-interns under a fresh table (see
:func:`~repro.relational.columnar.interner_import`).  On platforms
without fork, :func:`resolve_jobs` degrades to ``1`` and callers take
their sequential path unchanged.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import secrets
from array import array
from typing import Any, Callable, Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.database import Database
from repro.errors import OperationCancelled, ReproError
from repro.obs.metrics import get_registry
from repro.obs.recorder import get_recorder
from repro.obs.trace import clock_sample, clock_skew_ns, get_tracer
from repro.relational.attributes import AttributeSet
from repro.relational.columnar import ColumnarTable, intern_value, value_of
from repro.relational.relation import Relation

try:  # pragma: no cover - absent only on exotic builds
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover
    _shared_memory = None

__all__ = [
    "SEGMENT_PREFIX",
    "START_METHOD",
    "DatabaseSnapshot",
    "ParallelContext",
    "WorkerEnvelope",
    "live_segment_bytes",
    "live_segments",
    "outstanding_tasks",
    "oversubscription_allowed",
    "parallel_available",
    "resolve_jobs",
    "shared_memory_available",
    "visible_cpus",
    "warm_connected_taus",
    "worker_runtime",
]

#: The only start method this layer uses (see the module docstring).
START_METHOD = "fork"

_TRACER = get_tracer()
_METRICS = get_registry()


def parallel_available() -> bool:
    """Whether this platform can fork worker processes."""
    return START_METHOD in multiprocessing.get_all_start_methods()


def visible_cpus() -> int:
    """CPUs actually available to *this process*: the scheduling
    affinity mask where the platform exposes one (containers and CI
    runners routinely show ``os.cpu_count()`` cores while pinning the
    process to far fewer), else ``os.cpu_count()``."""
    sched_getaffinity = getattr(os, "sched_getaffinity", None)
    if sched_getaffinity is not None:
        try:
            return len(sched_getaffinity(0)) or 1
        except OSError:  # pragma: no cover - affinity unreadable
            pass
    return os.cpu_count() or 1


def oversubscription_allowed() -> bool:
    """Whether ``REPRO_OVERSUBSCRIBE`` authorizes more workers than
    visible CPUs (empty/``0``/``false``/``no`` mean **no**, the
    default).  Oversubscribing a CPU-bound fork pool is a pure loss --
    a condition sweep once measured jobs=8 at 0.62x of sequential on a
    one-CPU box -- so it has to be asked for explicitly."""
    value = os.environ.get("REPRO_OVERSUBSCRIBE", "").strip().lower()
    return value not in ("", "0", "false", "no")


_CLAMPS = _METRICS.counter(
    "parallel.jobs_clamped", "jobs= requests clamped to the visible CPU count"
)


def resolve_jobs(jobs: Optional[int], *, oversubscribe: Optional[bool] = None) -> int:
    """Normalize a public ``jobs`` argument to an effective worker count.

    ``None`` means sequential (1).  ``0`` means "all visible CPUs"
    (:func:`visible_cpus`).  Anything above 1 degrades to 1 on platforms
    without fork, so callers can branch on ``resolve_jobs(jobs) > 1``
    and otherwise run the exact sequential path.

    Requests beyond the visible CPU count are **clamped** to it unless
    ``oversubscribe=True`` (or the ``REPRO_OVERSUBSCRIBE`` environment
    variable) explicitly lifts the cap; each clamp is recorded on the
    ``parallel.jobs_clamped`` counter, as a tracer event, and on the
    flight recorder, so envelopes and run ledgers show the requested
    and effective counts.
    """
    if jobs is None:
        return 1
    if jobs < 0:
        raise ReproError(f"jobs must be a non-negative int or None, got {jobs}")
    cpus = visible_cpus()
    workers = jobs if jobs else cpus
    if workers > 1 and not parallel_available():
        return 1
    if workers > cpus:
        if oversubscribe is None:
            oversubscribe = oversubscription_allowed()
        if not oversubscribe:
            if _METRICS.enabled:
                _CLAMPS.inc(requested=workers)
            if _TRACER.enabled:
                _TRACER.event(
                    "parallel.jobs_clamped",
                    requested=workers,
                    visible_cpus=cpus,
                    effective=cpus,
                )
            get_recorder().record(
                "event",
                "parallel.jobs_clamped",
                requested=workers,
                visible_cpus=cpus,
                effective=cpus,
            )
            workers = cpus
    return workers


# -- shared-memory segment lifecycle -------------------------------------------

#: Every segment this layer creates is named with this prefix, so leak
#: checks (tests and the CI ``/dev/shm`` residue step) can spot ours.
SEGMENT_PREFIX = "repro_shm_"

#: Segments created by *this* process that have not been unlinked yet:
#: name -> SharedMemory.  The atexit guard below is the backstop for a
#: crashed fan-out; the normal path is ParallelContext.__exit__ ->
#: DatabaseSnapshot.close().
_LIVE_SEGMENTS: Dict[str, Any] = {}


def shared_memory_available() -> bool:
    """Whether ``multiprocessing.shared_memory`` is usable here."""
    return _shared_memory is not None


def live_segments() -> Tuple[str, ...]:
    """The names of shared-memory segments this process created and has
    not yet unlinked (the leak-guard introspection hook; empty after
    every pool teardown)."""
    return tuple(sorted(_LIVE_SEGMENTS))


def live_segment_bytes() -> int:
    """Total bytes of the live shared-memory segments this process owns
    (the ``resource.shm_bytes`` series of :mod:`repro.obs.sampler`)."""
    return sum(shm.size for shm in _LIVE_SEGMENTS.values())


#: Tasks submitted to a ParallelContext pool whose envelopes have not
#: arrived yet -- the ``resource.pool_queue_depth`` series.  A plain int
#: written only by the parent's run() loop; the sampler thread reads it.
_OUTSTANDING = 0


def outstanding_tasks() -> int:
    """How many fanned-out tasks are still in flight on this process's
    pools (0 outside a :meth:`ParallelContext.run` call)."""
    return _OUTSTANDING


def _release_mapping(shm) -> None:
    """Close ``shm``'s mapping, tolerating live views.

    A same-process ``restore()`` hands out memoryview slices over the
    segment; ``mmap.close()`` then raises :class:`BufferError`.  The
    mapping is handed over to those views instead (it is freed when the
    last view dies), and the references are dropped so the object's
    ``__del__`` does not re-raise at collection time.
    """
    try:
        shm.close()
    except BufferError:
        shm._buf = None
        shm._mmap = None


def _unlink_segment(name: str) -> None:
    shm = _LIVE_SEGMENTS.pop(name, None)
    if shm is None:
        return
    _release_mapping(shm)
    # A fork-started worker that attached by name shares this process's
    # resource tracker, and the attach-time unregister in ``_attach``
    # dropped our registration with it.  Re-registering is an idempotent
    # set-add, and balances the unregister that ``unlink`` sends -- the
    # tracker would otherwise log a KeyError at exit.
    try:  # pragma: no cover - tracker internals vary by version
        from multiprocessing import resource_tracker

        resource_tracker.register(shm._name, "shared_memory")
    except Exception:
        pass
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already gone
        pass


def _cleanup_segments() -> None:
    """atexit backstop: unlink anything a crashed run left behind."""
    for name in list(_LIVE_SEGMENTS):
        _unlink_segment(name)


atexit.register(_cleanup_segments)


class DatabaseSnapshot:
    """A self-contained, picklable image of a :class:`Database`, with
    the column data in a shared-memory segment.

    ``tables`` holds one ``(name, order, offset, nrows)`` quadruple per
    relation; the rows themselves live sorted and flattened (row-major
    ``int64``) in one shared-memory segment -- or, when shared memory is
    unavailable or the database is empty, in the ``inline`` bytes
    fallback.  ``values`` maps every referenced interned id to its
    value, so :meth:`restore` can rebuild the database under a
    *different* process's interning table.

    Pickling ships only the metadata, the interner slice, the tau-cache,
    and the segment *name*; fork-started workers inherit the mapping
    itself and attach with zero copies.  The creating process owns the
    segment and must :meth:`close` it (``ParallelContext`` does, even on
    exceptions; an ``atexit`` guard backstops crashes).
    """

    __slots__ = (
        "tables",
        "values",
        "taus",
        "engine",
        "segment",
        "nbytes",
        "inline",
        "_shm",
        "_owner_pid",
    )

    def __init__(self, db: Database, use_shared_memory: bool = True):
        flat = array("q")
        extend = flat.extend
        tables: List[Tuple[Optional[str], Tuple[str, ...], int, int]] = []
        for rel in db.relations():
            table = rel._table()
            offset = len(flat)
            extend(table.to_packed())
            tables.append((rel.name, table.order, offset, len(table)))
        self.tables = tuple(tables)
        # One C-speed dedup over the whole buffer collects every
        # referenced id exactly once.
        self.values = {vid: value_of(vid) for vid in set(flat)}
        # Everything the parent already counted rides along: a worker
        # with a cold tau-cache re-derives the shared subset taus no
        # matter how little of the sweep it owns (see
        # :func:`warm_connected_taus`).
        self.taus = db.tau_cache_export()
        # A per-database engine pin (Database(engine=...)) rides into the
        # worker's rebuilt database.
        self.engine = db._engine
        self.nbytes = len(flat) * flat.itemsize
        self.segment: Optional[str] = None
        self.inline: Optional[bytes] = None
        self._shm = None
        self._owner_pid = os.getpid()
        if use_shared_memory and self.nbytes and shared_memory_available():
            name = SEGMENT_PREFIX + secrets.token_hex(8)
            shm = _shared_memory.SharedMemory(name=name, create=True, size=self.nbytes)
            shm.buf[: self.nbytes] = memoryview(flat).cast("B")
            self.segment = name
            self._shm = shm
            _LIVE_SEGMENTS[name] = shm
        else:
            self.inline = flat.tobytes()

    # -- pickling (spawn-start workers) ------------------------------------

    def __getstate__(self) -> Dict[str, Any]:
        return {
            "tables": self.tables,
            "values": self.values,
            "taus": self.taus,
            "engine": self.engine,
            "segment": self.segment,
            "nbytes": self.nbytes,
            "inline": self.inline,
        }

    def __setstate__(self, state: Dict[str, Any]) -> None:
        for key, value in state.items():
            setattr(self, key, value)
        self._shm = None
        self._owner_pid = None

    # -- lifecycle ----------------------------------------------------------

    def _attach(self):
        """Attach to the segment by name (spawn-started workers; the
        fork path inherits ``_shm`` and never comes here)."""
        shm = _shared_memory.SharedMemory(name=self.segment)
        # CPython < 3.13 registers attached segments with the resource
        # tracker as if this process owned them, and would unlink the
        # segment when this process exits.  The creating process owns
        # the lifecycle; undo the registration.
        try:  # pragma: no cover - tracker internals vary by version
            from multiprocessing import resource_tracker

            resource_tracker.unregister(shm._name, "shared_memory")
        except Exception:
            pass
        self._shm = shm
        return shm

    def close(self, unlink: Optional[bool] = None) -> None:
        """Release this snapshot's shared-memory segment.

        ``unlink`` defaults to True in the creating process and False
        everywhere else -- workers drop their mapping, the owner removes
        the segment.  Safe to call twice.
        """
        if self.segment is None:
            return
        if unlink is None:
            unlink = self._owner_pid == os.getpid()
        if unlink:
            _unlink_segment(self.segment)
        shm = self._shm
        self._shm = None
        # An attached clone's SharedMemory is a distinct object on the
        # same name; only skip the close when this is literally the
        # owner's object that _unlink_segment already handled.
        if shm is not None and _LIVE_SEGMENTS.get(shm.name) is not shm:
            _release_mapping(shm)

    def _buffer(self):
        """The flat ``int64`` view over the column data (shared segment
        or inline fallback), or ``None`` for an all-empty database."""
        if self.segment is not None:
            shm = self._shm
            if shm is None:
                shm = self._attach()
            return memoryview(shm.buf)[: self.nbytes].cast("q")
        if self.inline:
            return memoryview(self.inline).cast("q")
        return None

    def restore(self) -> Database:
        """Rebuild the database in the current process.

        Values are re-interned locally; when every id survives unchanged
        (always true under fork, where the parent's interning table is
        inherited) the relations wrap the shared buffer **zero-copy** --
        column blocks decode lazily on first kernel use.  Under a fresh
        interning table (spawn) the id tuples are rewritten through the
        translation map instead.
        """
        translate = {vid: intern_value(value) for vid, value in self.values.items()}
        zero_copy = all(vid == local for vid, local in translate.items())
        buf = self._buffer()
        relations = []
        for name, order, offset, nrows in self.tables:
            width = len(order)
            if nrows == 0:
                table = ColumnarTable(order)
            elif zero_copy:
                table = ColumnarTable.from_packed(
                    order, buf[offset : offset + nrows * width], nrows
                )
            else:
                view = buf[offset : offset + nrows * width]
                table = ColumnarTable(
                    order,
                    frozenset(
                        tuple(map(translate.__getitem__, row))
                        for row in zip(*(view[i::width] for i in range(width)))
                    ),
                )
            relations.append(Relation._from_table(AttributeSet(order), table, name))
        db = Database(relations, engine=self.engine)
        db.tau_cache_import(self.taus.items())
        return db


class WorkerEnvelope:
    """One task's payload plus the telemetry it produced in the worker.

    Besides the spans/metrics/tau entries, the envelope carries the
    worker's *trace identity*: the ``trace_id`` its tracer recorded
    under (shipped in through the pool initializer's
    :class:`~repro.obs.trace.TraceContext`), a :func:`clock_sample` pair
    taken at drain time so the parent can normalize clock skew before
    adopting the spans, and the worker ``pid`` for flight-recorder
    forensics.
    """

    __slots__ = ("payload", "spans", "metrics", "tau_entries", "trace_id", "clock", "pid")

    def __init__(
        self,
        payload,
        spans,
        metrics,
        tau_entries,
        trace_id=None,
        clock=None,
        pid=None,
    ):
        self.payload = payload
        self.spans = spans
        self.metrics = metrics
        self.tau_entries = tau_entries
        self.trace_id = trace_id
        self.clock = clock
        self.pid = pid


# -- worker side ---------------------------------------------------------------

#: Per-worker state, populated by the pool initializer after fork.
_STATE: Dict[str, Any] = {}


def _init_worker(
    snapshot,
    extra,
    tracer_on: bool,
    metrics_on: bool,
    runtime=None,
    trace_ctx=None,
) -> None:
    """Pool initializer: rehydrate the database, reset telemetry.

    The worker inherits the parent's tracer/registry contents via fork;
    both are cleared so envelopes carry only what *this worker's* tasks
    produce, and re-enabled to match the parent's flags at fork time.
    ``trace_ctx`` is the parent's :class:`~repro.obs.trace.TraceContext`:
    the worker records under the same ``trace_id``, and the parent
    re-parents the shipped spans under the context's span on adopt.

    ``runtime`` (fork-inherited, never pickled) is installed as a
    :meth:`~repro.runtime.Runtime.worker_clone`: same deadline instant
    and cancel token (whose shared cell was created before the fork),
    fresh budget of the parent's remaining units.
    """
    tracer = get_tracer()
    tracer.enabled = tracer_on
    tracer.clear()
    if trace_ctx is not None:
        tracer.trace_id = trace_ctx.trace_id
    registry = get_registry()
    registry.enabled = metrics_on
    registry.reset()
    _STATE["db"] = snapshot.restore()
    _STATE["extra"] = extra
    _STATE["runtime"] = runtime.worker_clone() if runtime is not None else None
    # Entries inherited through the snapshot must not be shipped back.
    _STATE["tau_sent"] = set(snapshot.taus)


def worker_runtime():
    """The current worker's :class:`~repro.runtime.Runtime` clone, or
    ``None`` (also ``None`` on the parent process).  Chunk bodies poll
    this instead of growing a parameter."""
    return _STATE.get("runtime")


def _drain_envelope(payload) -> WorkerEnvelope:
    """Wrap a task payload with the telemetry accumulated since the
    previous drain (spans, metric rows, and *fresh* tau-cache entries)."""
    tracer = get_tracer()
    spans: Tuple[Dict[str, Any], ...] = ()
    if tracer.enabled:
        spans = tuple(span.to_dict() for span in tracer.finished_spans())
        # clear() drops the trace id (it marks a run boundary); the
        # worker is still inside the same run, so restore it -- every
        # envelope of this pool must carry the run's identity.
        trace_id = tracer.trace_id
        tracer.clear()
        tracer.trace_id = trace_id
    registry = get_registry()
    metrics = registry.drain() if registry.enabled else []
    tau_entries: List[Tuple[Any, int]] = []
    sent = _STATE["tau_sent"]
    for key, tau in _STATE["db"].tau_cache_export().items():
        if key not in sent:
            sent.add(key)
            tau_entries.append((key, tau))
    return WorkerEnvelope(
        payload,
        spans,
        metrics,
        tau_entries,
        trace_id=tracer.trace_id,
        clock=clock_sample(),
        pid=os.getpid(),
    )


def _invoke(task):
    """Run one task: ``fn(db, extra, *args)`` -> indexed envelope."""
    fn, index, args = task
    payload = fn(_STATE["db"], _STATE["extra"], *args)
    return index, _drain_envelope(payload)


def _tau_chunk(db, extra, positions):
    """Worker body for :func:`warm_connected_taus`: count the assigned
    connected subsets (the envelope ships the fresh cache entries)."""
    connected = db.connected_subsets()
    for pos in positions:
        db.tau_of(connected[pos])
    return len(positions)


# -- parent side ---------------------------------------------------------------


class ParallelContext:
    """A forked worker pool over one shared database.

    Usage::

        with ParallelContext(db=db, jobs=4, extra={...}) as ctx:
            results = ctx.run(chunk_fn, [(chunk,) for chunk in chunks])

    ``extra`` is delivered to workers through the fork-inherited pool
    initializer, so it may hold anything (closures, cost functions) --
    it is never pickled.

    ``runtime`` extends the request's resilience bounds into the pool:
    the token's shared cell is created *before* the fork (so a
    parent-side ``cancel()`` is visible in every worker), and each
    worker runs under a :meth:`~repro.runtime.Runtime.worker_clone`
    (see :func:`worker_runtime`).
    """

    __slots__ = (
        "db",
        "jobs",
        "extra",
        "runtime",
        "_ctx",
        "_pool",
        "_snapshot",
        "_trace_ctx",
    )

    def __init__(
        self,
        db: Database,
        jobs: int,
        extra: Optional[Dict[str, Any]] = None,
        runtime=None,
    ):
        if jobs < 2:
            raise ReproError(f"ParallelContext needs at least 2 workers, got {jobs}")
        if not parallel_available():
            raise ReproError("process-pool parallelism requires the fork start method")
        self.db = db
        self.jobs = jobs
        self.extra = extra
        self.runtime = runtime
        self._ctx = multiprocessing.get_context(START_METHOD)
        if runtime is not None and runtime.token is not None:
            runtime.token.share(self._ctx)
        self._pool = None
        self._snapshot = None
        self._trace_ctx = None

    def __enter__(self) -> "ParallelContext":
        snapshot = DatabaseSnapshot(self.db)
        self._snapshot = snapshot
        # Captured inside whatever span the driver has open, so worker
        # spans re-parent under the driver's span by default and record
        # under the run's trace id (see WorkerEnvelope).
        self._trace_ctx = _TRACER.trace_context()
        try:
            self._pool = self._ctx.Pool(
                self.jobs,
                initializer=_init_worker,
                initargs=(
                    snapshot,
                    self.extra,
                    _TRACER.enabled,
                    _METRICS.enabled,
                    self.runtime,
                    self._trace_ctx,
                ),
            )
        except BaseException:
            self._snapshot = None
            snapshot.close()
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pool = self._pool
        self._pool = None
        snapshot = self._snapshot
        self._snapshot = None
        try:
            if pool is not None:
                # A cancelled fan-out drains instead of being killed: every
                # worker shares the cancel cell and returns at its next
                # charge, while terminate() could kill a worker mid-send on
                # the result queue, holding the queue's write lock, and the
                # pool's task handler would then block on it forever.
                if exc_type is None or issubclass(exc_type, OperationCancelled):
                    pool.close()
                else:
                    pool.terminate()
                pool.join()
        finally:
            # Unlink the segment only after every worker has exited: the
            # mapping survives in the workers regardless, but unlinking
            # last keeps /dev/shm accounting exact for the leak guard.
            if snapshot is not None:
                snapshot.close()

    def run(
        self,
        fn: Callable[..., Any],
        arglists: Sequence[Tuple[Any, ...]],
        parent_span_id: Optional[int] = None,
    ) -> List[Any]:
        """Fan ``fn(db, extra, *args)`` out over ``arglists``.

        Envelopes are merged as they arrive (unordered, so a fast
        worker's tau entries and spans land without waiting for a slow
        one); the returned payloads are re-sorted into ``arglists``
        order, so callers see a deterministic sequence regardless of
        scheduling.  Adopted worker spans are parented under
        ``parent_span_id`` when given, and otherwise under the span that
        was open when the pool was built (the trace context captured in
        ``__enter__``); their start times are normalized through
        :func:`~repro.obs.trace.clock_skew_ns` using the envelope's
        drain-time clock sample.  A worker that dies mid-fan-out is
        recorded as a ``parallel.worker_failure`` anomaly on the flight
        recorder before the pool error propagates.
        """
        global _OUTSTANDING
        if self._pool is None:
            raise ReproError("ParallelContext.run called outside the with-block")
        if parent_span_id is None and self._trace_ctx is not None:
            parent_span_id = self._trace_ctx.span_id
        tasks = [(fn, index, tuple(args)) for index, args in enumerate(arglists)]
        payloads: Dict[int, Any] = {}
        _OUTSTANDING = len(tasks)
        try:
            for index, envelope in self._pool.imap_unordered(_invoke, tasks):
                if envelope.spans and _TRACER.enabled:
                    skew = 0
                    if envelope.clock is not None and self._trace_ctx is not None:
                        skew = clock_skew_ns(self._trace_ctx.clock, envelope.clock)
                    _TRACER.adopt(envelope.spans, parent_span_id, skew_ns=skew)
                if envelope.metrics:
                    _METRICS.absorb(envelope.metrics)
                if envelope.tau_entries:
                    self.db.tau_cache_import(envelope.tau_entries)
                payloads[index] = envelope.payload
                _OUTSTANDING -= 1
        except Exception as exc:
            # A worker that died (or a task that raised) abandons the
            # fan-out; leave a diagnosable trail before propagating.
            get_recorder().anomaly(
                "parallel.worker_failure",
                error=type(exc).__name__,
                detail=str(exc)[:500],
                jobs=self.jobs,
                completed=len(payloads),
                submitted=len(tasks),
            )
            raise
        finally:
            _OUTSTANDING = 0
        return [payloads[i] for i in range(len(tasks))]


def warm_connected_taus(db: Database, workers: int) -> None:
    """Fill ``db``'s tau-cache with every connected subset's count,
    fanning the computations across ``workers`` forked processes.

    The connected-subset taus are the *shared table* behind every sweep:
    strategy costings reduce to them (an unconnected subset's tau is the
    product of its connected components' taus), so a cold worker
    re-derives nearly the whole table no matter how few strategies it
    owns.  The fan-outs call this before building their main pool; the
    warmed cache rides into the workers through the database snapshot
    and per-worker redundancy collapses to chunk-local products.

    Subsets are strided across one chunk per worker (sizes -- and hence
    costs -- interleave, so stripes balance); tables smaller than the
    pool is worth warm in-process instead.
    """
    connected = db.connected_subsets()
    if len(connected) < workers * 4:
        for subset in connected:
            db.tau_of(subset)
        return
    chunks = [tuple(range(w, len(connected), workers)) for w in range(workers)]
    with ParallelContext(db=db, jobs=workers) as ctx:
        ctx.run(_tau_chunk, [(chunk,) for chunk in chunks])
