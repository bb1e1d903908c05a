"""``EXPLAIN ANALYZE`` for join strategies: the :class:`RunReport` profiler.

The paper's cost measure ``tau(S)`` is literally "tuples produced per
step", so the most faithful profile of a run is a per-step
*estimated-vs-actual* tau report.  :meth:`RunReport.capture` plans a
strategy (or takes one), then re-executes it step by step on a
cold-cache clone of the database with observability enabled, assembling
for every join step:

* **estimated tau** -- what the classical uniformity/independence
  estimator (:mod:`repro.optimizer.estimate`) believed the step would
  produce;
* **actual tau** and the resulting **Q-error**;
* **wall time** of the step's join;
* **join-kernel counters** -- hash-table probes, row comparisons, and
  output tuples (``join.probes`` / ``join.comparisons`` /
  ``join.output_tuples``, see docs/performance.md);
* **cache traffic** -- subset-join/tau-cache hits vs computed joins,
  charged to the step via :meth:`repro.database.Database.cache_stats`
  snapshots.

Around the steps it records per-phase wall time and peak memory
(``tracemalloc``) for the *plan*, *statistics*, and *execute* phases,
the planner's own cache statistics, and the aggregate Q-error trio
(max / mean / geometric mean).

The report renders as an ``EXPLAIN ANALYZE``-style table through
:class:`repro.report.Table` (``repro explain`` on the command line) and
exports as JSON (:meth:`RunReport.to_json` / :meth:`RunReport.write_json`)
for the CI perf-regression artifacts.  Because capture runs inside
``obs.observed()``, the recorded span tree is also available afterwards
for Chrome-trace export (:func:`repro.obs.export.write_chrome_trace`).
"""

from __future__ import annotations

import json
import time
import tracemalloc
from collections import OrderedDict
from contextlib import contextmanager
from typing import Any, Callable, Dict, List, Optional

import repro.obs as obs
from repro.database import CacheStats, Database
from repro.obs.metrics import get_registry
from repro.optimizer.dp import optimize_dp
from repro.optimizer.estimate import CardinalityEstimator, aggregate_qerror
from repro.optimizer.spaces import OptimizationResult, SearchSpace
from repro.report import Table, render_kv

__all__ = ["StepProfile", "RunReport"]

#: The kernel counters charged to individual steps (docs/performance.md).
KERNEL_COUNTERS = ("join.probes", "join.comparisons", "join.output_tuples")

# The same per-step Q-error histogram qerror_profile feeds, so a profiled
# run's Prometheus exposition carries the p50/p95/p99 summary.
_QERROR = get_registry().histogram(
    "estimator.qerror", "per-step Q-error of the cardinality estimator"
)


def _kernel_counts() -> Dict[str, int]:
    """The current process-wide totals of the join-kernel counters."""
    registry = get_registry()
    return {
        name: sum(registry.counter(name).series().values())
        for name in KERNEL_COUNTERS
    }


class StepProfile:
    """One profiled join step: the paper's per-step accounting, measured.

    ``estimated``/``actual`` are the step's believed and true output tau;
    ``wall_ns`` is the time its join took on the cold-cache executor;
    ``probes``/``comparisons``/``output_tuples`` are the kernel-counter
    deltas; ``cache_hits``/``cache_lookups`` the subset-cache traffic the
    step generated (children of earlier steps hit the memo).
    """

    __slots__ = (
        "step",
        "estimated",
        "actual",
        "wall_ns",
        "probes",
        "comparisons",
        "output_tuples",
        "cache_hits",
        "cache_lookups",
        "cartesian",
    )

    def __init__(
        self,
        step: str,
        estimated: float,
        actual: int,
        wall_ns: int,
        probes: int,
        comparisons: int,
        output_tuples: int,
        cache_hits: int,
        cache_lookups: int,
        cartesian: bool,
    ):
        self.step = step
        self.estimated = estimated
        self.actual = actual
        self.wall_ns = wall_ns
        self.probes = probes
        self.comparisons = comparisons
        self.output_tuples = output_tuples
        self.cache_hits = cache_hits
        self.cache_lookups = cache_lookups
        self.cartesian = cartesian

    @property
    def q_error(self) -> float:
        """``max(est/actual, actual/est)``, both clamped to >= 1 (the
        same symmetric ratio as :class:`repro.optimizer.estimate.StepEstimate`)."""
        est = max(self.estimated, 1.0)
        act = max(float(self.actual), 1.0)
        return max(est / act, act / est)

    @property
    def wall_ms(self) -> float:
        """The step's wall time in milliseconds."""
        return self.wall_ns / 1e6

    @property
    def cache_hit_rate(self) -> float:
        """``cache_hits / cache_lookups`` (0.0 when the step looked up
        nothing)."""
        if self.cache_lookups == 0:
            return 0.0
        return self.cache_hits / self.cache_lookups

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-ready dict (one row of the profile export)."""
        return {
            "step": self.step,
            "estimated": self.estimated,
            "actual": self.actual,
            "q_error": self.q_error,
            "wall_ms": self.wall_ms,
            "probes": self.probes,
            "comparisons": self.comparisons,
            "output_tuples": self.output_tuples,
            "cache_hits": self.cache_hits,
            "cache_lookups": self.cache_lookups,
            "cache_hit_rate": self.cache_hit_rate,
            "cartesian": self.cartesian,
        }

    def __repr__(self) -> str:
        return (
            f"<StepProfile {self.step} est={self.estimated:.1f} "
            f"actual={self.actual} q={self.q_error:.2f} "
            f"{self.wall_ms:.3f}ms>"
        )


class _PhaseClock:
    """Per-phase wall time and peak memory, via ``tracemalloc``.

    ``tracemalloc`` is started only if it is not already tracing (a host
    application's tracing session is left alone) and stopped on
    :meth:`close` only if this clock started it.  Peak tracking is reset
    at each phase boundary so every phase reports its own high-water
    mark.
    """

    __slots__ = ("phases", "_track", "_started_tracing")

    def __init__(self, track_memory: bool = True):
        self.phases: "OrderedDict[str, Dict[str, Optional[float]]]" = OrderedDict()
        self._track = track_memory
        self._started_tracing = False
        if self._track and not tracemalloc.is_tracing():
            tracemalloc.start()
            self._started_tracing = True

    @contextmanager
    def phase(self, name: str):
        if self._track:
            tracemalloc.reset_peak()
        start = time.perf_counter()
        try:
            yield
        finally:
            wall_s = time.perf_counter() - start
            peak_kb: Optional[float] = None
            if self._track:
                peak_kb = tracemalloc.get_traced_memory()[1] / 1024.0
            self.phases[name] = {"wall_s": wall_s, "peak_kb": peak_kb}

    def close(self) -> None:
        if self._started_tracing:
            tracemalloc.stop()
            self._started_tracing = False


class RunReport:
    """A full ``EXPLAIN ANALYZE`` profile of one optimized-and-executed run.

    Build one with :meth:`capture`; render it with :meth:`render`; export
    it with :meth:`to_dict` / :meth:`to_json` / :meth:`write_json`.
    """

    __slots__ = (
        "strategy",
        "space",
        "optimizer",
        "steps",
        "phases",
        "planner_cache",
        "executor_cache",
        "workload",
        "degradation",
        "routing",
        "execution",
    )

    def __init__(
        self,
        strategy,
        space: str,
        optimizer: str,
        steps: List[StepProfile],
        phases: "OrderedDict[str, Dict[str, Optional[float]]]",
        planner_cache: CacheStats,
        executor_cache: CacheStats,
        workload: Optional[Dict[str, Any]] = None,
        degradation=None,
        routing=None,
        execution=(),
    ):
        self.strategy = strategy
        self.space = space
        self.optimizer = optimizer
        self.steps = steps
        self.phases = phases
        self.planner_cache = planner_cache
        self.executor_cache = executor_cache
        if workload is not None and hasattr(workload, "to_dict"):
            workload = workload.to_dict()
        self.workload = dict(workload) if workload else {}
        self.degradation = degradation
        self.routing = routing
        self.execution = execution

    # -- capture -----------------------------------------------------------

    @classmethod
    def capture(
        cls,
        db: Database,
        space: SearchSpace = SearchSpace.ALL,
        strategy=None,
        workload: Optional[Dict[str, Any]] = None,
        track_memory: bool = True,
        planner: Callable[..., OptimizationResult] = optimize_dp,
        runtime=None,
    ) -> "RunReport":
        """Profile one run of ``db``: plan, estimate, and execute per step.

        ``workload`` may be a plain dict or a
        :class:`~repro.workloads.generators.WorkloadSpec` (recorded via
        its ``to_dict``).  ``runtime`` (a
        :class:`~repro.runtime.Runtime`) bounds the *plan* phase: on
        exhaustion the profiled plan is the greedy fallback and the
        report's ``degradation`` records why.  The execute phase always
        runs the served plan to completion.

        * **plan** -- ``planner`` finds the tau-optimal strategy in
          ``space`` (skipped when ``strategy`` is passed in).  It is
          called as ``planner(db, space, runtime=runtime)``: the subset
          DP by default, or
          :func:`~repro.optimizer.exhaustive.optimize_exhaustive` for
          ground-truth enumeration at paper scale;
        * **statistics** -- the classical estimator collects its
          per-column statistics;
        * **execute** -- every step of the strategy is executed, in the
          paper's post-order, on a *cold-cache clone* of the database
          (same relation states, fresh memo), so each step's wall time,
          kernel counters, and cache traffic are genuinely its own.

        Runs inside :func:`repro.obs.observed`, so spans and metrics are
        recorded and the previous observability state is restored even on
        error; recorded telemetry is kept for later export.  With
        ``track_memory=False`` the ``tracemalloc`` phase peaks are
        skipped (and reported as ``None``).
        """
        from contextlib import nullcontext

        from repro.optimizer.route import EngineRouter
        from repro.runtime.core import using_runtime

        # Decide the execution engine up front (same policy as
        # JoinQuery): cyclic schemes on the default engine are routed to
        # generic join, acyclic ones to the Yannakakis pipeline, and
        # both the planner and the executor clone run on the routed
        # engine so the profile reflects reality.
        routing = EngineRouter(db).route()
        if routing.routed:
            db = db.with_engine(routing.effective)
        ambient = using_runtime(runtime) if runtime is not None else nullcontext()
        clock = _PhaseClock(track_memory)
        optimizer = "manual"
        degradation = None
        try:
            with obs.observed(), ambient:
                with clock.phase("plan"):
                    if strategy is None:
                        result = planner(db, space, runtime=runtime)
                        strategy = result.strategy
                        optimizer = result.optimizer
                        degradation = result.degradation
                planner_cache = db.cache_stats()
                with clock.phase("statistics"):
                    estimator = CardinalityEstimator.from_database(db)
                # Same relation states, fresh caches: each step below
                # really computes its join (children hit the memo, as a
                # real pipelined execution would).
                executor = Database(db.relations(), engine=db.pinned_engine)
                steps: List[StepProfile] = []
                with clock.phase("execute"):
                    for node in strategy.steps():
                        estimated = estimator.estimate_step(node)
                        counts_before = _kernel_counts()
                        cache_before = executor.cache_stats()
                        start_ns = time.perf_counter_ns()
                        state = executor.join_of(node.scheme_set.schemes)
                        wall_ns = time.perf_counter_ns() - start_ns
                        counts_after = _kernel_counts()
                        cache_delta = executor.cache_stats().delta(cache_before)
                        steps.append(
                            StepProfile(
                                step=node.describe(),
                                estimated=estimated,
                                actual=len(state),
                                wall_ns=wall_ns,
                                probes=counts_after["join.probes"]
                                - counts_before["join.probes"],
                                comparisons=counts_after["join.comparisons"]
                                - counts_before["join.comparisons"],
                                output_tuples=counts_after["join.output_tuples"]
                                - counts_before["join.output_tuples"],
                                cache_hits=cache_delta.hits,
                                cache_lookups=cache_delta.lookups,
                                cartesian=node.step_uses_cartesian_product(),
                            )
                        )
                        _QERROR.observe(steps[-1].q_error)
                executor_cache = executor.cache_stats()
                execution = EngineRouter.execution(
                    strategy, sum(step.actual for step in steps), routing
                )
        finally:
            clock.close()
        return cls(
            strategy=strategy,
            space=space.value if isinstance(space, SearchSpace) else str(space),
            optimizer=optimizer,
            steps=steps,
            phases=clock.phases,
            planner_cache=planner_cache,
            executor_cache=executor_cache,
            workload=workload,
            degradation=degradation,
            routing=routing,
            execution=execution,
        )

    # -- derived quantities ------------------------------------------------

    @property
    def tau(self) -> int:
        """The plan's true cost: the sum of the steps' actual taus."""
        return sum(step.actual for step in self.steps)

    @property
    def qerror(self) -> Dict[str, float]:
        """Aggregate Q-error (max / mean / geometric mean) over the steps."""
        return aggregate_qerror(self.steps)

    @property
    def execute_wall_ms(self) -> float:
        """Total execution wall time across the steps, in milliseconds."""
        return sum(step.wall_ns for step in self.steps) / 1e6

    # -- presentation ------------------------------------------------------

    def render(self) -> str:
        """The ``EXPLAIN ANALYZE`` table plus the run-level summary."""
        table = Table(
            [
                "step",
                "est tau",
                "actual tau",
                "q-error",
                "time (ms)",
                "probes",
                "cmps",
                "out",
                "cache hit",
            ],
            title=f"EXPLAIN ANALYZE: {self.strategy.describe()}",
        )
        for index, step in enumerate(self.steps, start=1):
            table.add_row(
                f"{index}. {step.step}" + (" [CP]" if step.cartesian else ""),
                f"{step.estimated:.1f}",
                step.actual,
                f"{step.q_error:.2f}",
                f"{step.wall_ms:.3f}",
                step.probes,
                step.comparisons,
                step.output_tuples,
                f"{step.cache_hit_rate * 100:.0f}%",
            )
        aggregates = self.qerror
        pairs = [
            ("space", self.space),
            ("optimizer", self.optimizer),
        ]
        if self.routing is not None:
            pairs.append(("engine", self.routing.effective))
            pairs.append(
                (
                    "scheme",
                    ("cyclic" if self.routing.cyclic else "acyclic")
                    + (f"; {self.routing.reason}"),
                )
            )
            if self.routing.cover is not None:
                pairs.append(
                    ("agm bound", f"{self.routing.cover.bound:.6g}")
                )
            structure = self.routing.structure_summary()
            if structure is not None:
                pairs.append(structure)
        pairs += [("execute", r.describe().split(": ", 1)[1]) for r in self.execution]
        if self.degradation is not None:
            pairs.append(
                (
                    "degraded",
                    f"{self.degradation.trigger} exhausted; served "
                    f"{self.degradation.fallback}",
                )
            )
        pairs += [
            ("plan tau", self.tau),
            ("execute wall (ms)", f"{self.execute_wall_ms:.3f}"),
            ("q-error max", f"{aggregates['max']:.2f}"),
            ("q-error geometric mean", f"{aggregates['geometric_mean']:.2f}"),
            ("planner cache hit rate", f"{self.planner_cache.hit_rate * 100:.0f}%"),
            ("executor cache hit rate", f"{self.executor_cache.hit_rate * 100:.0f}%"),
            ("tau-cache entries (planner)", self.planner_cache.tau_entries),
        ]
        for name, numbers in self.phases.items():
            peak = numbers.get("peak_kb")
            detail = f"{numbers['wall_s'] * 1e3:.3f} ms"
            if peak is not None:
                detail += f", peak {peak:.1f} KiB"
            pairs.append((f"phase[{name}]", detail))
        return table.render() + "\n\n" + render_kv(pairs)

    def to_dict(self) -> Dict[str, Any]:
        """The whole profile as one JSON-ready dict (the schema the CI
        artifact and the regress tooling consume)."""
        return {
            "plan": self.strategy.describe(),
            "space": self.space,
            "optimizer": self.optimizer,
            "degraded": self.degradation is not None,
            "degradation": (
                self.degradation.to_dict() if self.degradation is not None else None
            ),
            "engine": (
                self.routing.effective if self.routing is not None else None
            ),
            "routing": (
                self.routing.to_dict() if self.routing is not None else None
            ),
            "execution": [record.to_dict() for record in self.execution],
            "tau": self.tau,
            "workload": dict(self.workload),
            "steps": [step.to_dict() for step in self.steps],
            "qerror": self.qerror,
            "execute_wall_ms": self.execute_wall_ms,
            "phases": {name: dict(numbers) for name, numbers in self.phases.items()},
            "planner_cache": self.planner_cache.to_dict(),
            "executor_cache": self.executor_cache.to_dict(),
        }

    def to_json(self, indent: int = 2) -> str:
        """The profile as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def write_json(self, path: str) -> None:
        """Write the JSON profile to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json() + "\n")

    def __repr__(self) -> str:
        return (
            f"<RunReport {self.strategy.describe()} tau={self.tau} "
            f"steps={len(self.steps)} qerror_max={self.qerror['max']:.2f}>"
        )
