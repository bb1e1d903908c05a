"""``EXPLAIN ANALYZE`` for join strategies: the :class:`RunReport` profiler.

The paper's cost measure ``tau(S)`` is literally "tuples produced per
step", so the most faithful profile of a run is a per-step
*estimated-vs-actual* tau report.  :meth:`RunReport.capture` plans a
strategy through :class:`~repro.query.JoinQuery` (or takes one), then
runs it once, as :meth:`repro.query.Plan.execute` does, with
observability enabled, and records one row per operator that run
visits above the leaves -- a binary ``plan`` step it computes, a
component it hands to the ``yannakakis`` or ``wcoj`` kernel, or a
``memo`` read of a result already in the join memo (zero work) --
carrying:

* **estimated tau** -- what the classical uniformity/independence
  estimator (:mod:`repro.optimizer.estimate`) believed the node would
  produce;
* **actual tau** and the resulting **Q-error**;
* **wall time** of the operator alone (its children excluded);
* **join-kernel counters** -- hash-table probes, row comparisons, and
  output tuples (``join.probes`` / ``join.comparisons`` /
  ``join.output_tuples``, see docs/performance.md), children excluded;
* **cache traffic** -- subset-join/tau-cache hits vs computed joins,
  charged to the operator from
  :meth:`repro.database.Database.cache_counts`, the ints behind
  :meth:`~repro.database.Database.cache_stats`.

Around the steps it records per-phase wall time and peak memory
(``tracemalloc``) for the *plan*, *statistics*, and *execute* phases,
the planner's own cache statistics, and the aggregate Q-error trio
(max / mean / geometric mean).

:meth:`RunReport.records` turns the report into run-ledger records --
one ``profile`` record and one ``operator`` record per row -- and the
``EXPLAIN ANALYZE`` table (``repro explain`` on the command line) is
rendered from those records by :func:`repro.obs.ledger.render_profile`,
the function ``repro obs report`` reprints a ledger with.  Because
capture runs inside ``obs.observed()``, the recorded span tree is also
available afterwards for Chrome-trace export
(:func:`repro.obs.export.write_chrome_trace`).
"""

from __future__ import annotations

import time
import tracemalloc
from collections import OrderedDict
from contextlib import contextmanager, nullcontext
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.obs as obs
from repro.database import CacheStats, Database
from repro.obs.ledger import render_profile
from repro.obs.metrics import get_registry
from repro.optimizer.dp import optimize_dp
from repro.optimizer.estimate import CardinalityEstimator, aggregate_qerror
from repro.optimizer.spaces import OptimizationResult, SearchSpace
from repro.query import JoinQuery, Plan
from repro.runtime.core import using_runtime
from repro.strategy.cost import tau_cost
from repro.strategy.tree import run

__all__ = ["StepProfile", "RunReport"]

#: The kernel counters charged to individual steps (docs/performance.md).
KERNEL_COUNTERS = ("join.probes", "join.comparisons", "join.output_tuples")

# The same per-step Q-error histogram qerror_profile feeds, so a profiled
# run's ledger carries the p50/p95/p99 summary.
_QERROR = get_registry().histogram(
    "estimator.qerror", "per-step Q-error of the cardinality estimator"
)


class StepProfile:
    """One profiled operator: the paper's per-step accounting, measured.

    ``step`` names the node (a plan step's ``describe()``, or the kernel
    and the relations of the component it ran) and ``operator`` what ran
    it: ``"plan"`` (a binary step), ``"yannakakis"`` or ``"wcoj"`` (a
    kernel), or ``"memo"`` (a join-memo read).
    ``estimated``/``actual`` are the node's believed and true output tau;
    ``wall_ns`` is the time the operator took, its children excluded;
    ``probes``/``comparisons``/``output_tuples`` are its kernel-counter
    deltas; ``cache_hits``/``cache_lookups`` its subset-cache traffic.
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
        "operator",
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
        operator: str,
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
        self.operator = operator

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
        """A JSON-ready dict: the fields of the row's ``operator`` ledger
        record."""
        return {
            "step": self.step,
            "operator": self.operator,
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
            f"<StepProfile {self.operator} {self.step} est={self.estimated:.1f} "
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


class _OperatorClock:
    """The ``memo`` :func:`repro.strategy.tree.run` calls once per step.

    Each call serves the step from the join memo exactly as
    :meth:`Plan.execute <repro.query.Plan.execute>` does and appends one
    row ``(subset, actual tau, [wall ns, probes, comparisons, output
    tuples, cache hits, computed])`` when it returns, so rows come in
    post-order.  A step's children run inside its call; their totals,
    bookkeeping included, are subtracted, so each row is the operator's
    own work.
    """

    __slots__ = ("_db", "_counters", "rows", "_nested")

    def __init__(self, db: Database):
        self._db = db
        registry = get_registry()
        self._counters = [registry.counter(name) for name in KERNEL_COUNTERS]
        self.rows: List[tuple] = []
        # Per open call: the totals of the calls nested inside it.
        self._nested: List[List[int]] = [[0] * 6]

    def _counts(self) -> List[int]:
        """The join-kernel counter totals and the database's cache
        hits and computed entries, read straight off the instruments
        and :meth:`Database.cache_counts` (no snapshot object per
        call)."""
        return [
            *[sum(counter.series().values()) for counter in self._counters],
            *self._db.cache_counts(),
        ]

    def __call__(self, db: Database, key, compute=None):
        enter = time.perf_counter_ns()
        self._nested.append([0] * 6)
        before = self._counts()
        start = time.perf_counter_ns()
        result = Database._join_memo(db, key, compute)
        wall_ns = time.perf_counter_ns() - start
        total = [wall_ns] + [a - b for a, b in zip(self._counts(), before)]
        nested = self._nested.pop()
        self.rows.append((key, len(result), [t - n for t, n in zip(total, nested)]))
        # The caller's own time excludes this call's bookkeeping as well.
        total[0] = time.perf_counter_ns() - enter
        self._nested[-1] = [t + n for t, n in zip(total, self._nested[-1])]
        return result


class RunReport:
    """A full ``EXPLAIN ANALYZE`` profile of one optimized-and-executed run.

    Build one with :meth:`capture`; export it as run-ledger records with
    :meth:`records`; render it, from those records, with :meth:`render`.
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

        * **plan** -- :class:`~repro.query.JoinQuery` describes ``db``
          (its routing record), and ``planner`` finds the tau-optimal
          strategy in ``space`` on ``db`` itself, called as
          ``planner(db, space, runtime=runtime)``: the subset DP by
          default, or
          :func:`~repro.optimizer.exhaustive.optimize_exhaustive` for
          ground-truth enumeration at paper scale.  A ``strategy`` passed
          in is costed instead, and runs on its own database, where
          ``Plan(strategy, ...).execute()`` would run it.  The phase ends
          with the plan's :attr:`~repro.query.Plan.execution` records;
        * **statistics** -- the classical estimator collects its
          per-column statistics;
        * **execute** -- the plan runs once through
          :func:`repro.strategy.tree.run`, the function :meth:`Plan.execute
          <repro.query.Plan.execute>` calls, on the database it was
          planned on, and every operator it visits above the leaves
          becomes one row, in post-order.

        Runs inside :func:`repro.obs.observed`, so spans and metrics are
        recorded and the previous observability state is restored even on
        error; recorded telemetry is kept for later export.  With
        ``track_memory=False`` the ``tracemalloc`` phase peaks are
        skipped (and reported as ``None``).
        """
        query = JoinQuery(db)
        ambient = using_runtime(runtime) if runtime is not None else nullcontext()
        clock = _PhaseClock(track_memory)
        try:
            with obs.observed(), ambient:
                with clock.phase("plan"):
                    if strategy is None:
                        plan = Plan.from_result(
                            planner(query.database, space, runtime=runtime)
                        )
                    else:
                        plan = Plan(strategy, tau_cost(strategy), space, "manual")
                    plan.provenance.routing = query.routing
                    kernels = {
                        record.subset: record
                        for record in plan.execution
                        if record.engine != "plan"
                    }
                planned = plan.strategy.database
                planner_cache = planned.cache_stats()
                with clock.phase("statistics"):
                    estimator = CardinalityEstimator.from_database(planned)
                operators = _OperatorClock(planned)
                engines = {key: record.engine for key, record in kernels.items()}
                with clock.phase("execute"):
                    run(plan.strategy, engines, operators)
                executor_cache = planned.cache_stats().delta(planner_cache)
                nodes = {node.scheme_set.schemes: node for node in plan.strategy.steps()}
                steps = []
                for key, actual, own in operators.rows:
                    wall_ns, probes, comparisons, output_tuples, hits, computed = own
                    node, record = nodes[key], kernels.get(key)
                    if record is None:
                        step, operator = node.describe(), "plan"
                    else:
                        step = f"{record.engine} {{{', '.join(record.relations)}}}"
                        operator = record.engine
                    steps.append(
                        StepProfile(
                            step=step,
                            estimated=estimator.estimate_step(node),
                            actual=actual,
                            wall_ns=wall_ns,
                            probes=probes,
                            comparisons=comparisons,
                            output_tuples=output_tuples,
                            cache_hits=hits,
                            cache_lookups=hits + computed,
                            cartesian=node.step_uses_cartesian_product(),
                            operator=operator if computed else "memo",
                        )
                    )
                    _QERROR.observe(steps[-1].q_error)
        finally:
            clock.close()
        return cls(
            strategy=plan.strategy,
            space=space.value if isinstance(space, SearchSpace) else str(space),
            optimizer=plan.optimizer,
            steps=steps,
            phases=clock.phases,
            planner_cache=planner_cache,
            executor_cache=executor_cache,
            workload=workload,
            degradation=plan.degradation,
            routing=query.routing,
            execution=plan.execution,
        )

    # -- derived quantities ------------------------------------------------

    @property
    def tau(self) -> int:
        """The plan's true cost ``tau(S)``, read from the planned
        database's caches.  On a plan executed binary it is the sum of
        the rows' actual taus."""
        return tau_cost(self.strategy)

    @property
    def qerror(self) -> Dict[str, float]:
        """Aggregate Q-error (max / mean / geometric mean) over the steps."""
        return aggregate_qerror(self.steps)

    @property
    def execute_wall_ms(self) -> float:
        """Total execution wall time across the rows, in milliseconds."""
        return sum(step.wall_ns for step in self.steps) / 1e6

    # -- export and presentation -------------------------------------------

    def _summary(self) -> List[Tuple[str, Any]]:
        """The run-level summary as the ``(key, value)`` pairs rendered
        under the table."""
        aggregates = self.qerror
        pairs: List[Tuple[str, Any]] = [
            ("space", self.space),
            ("optimizer", self.optimizer),
        ]
        if self.routing is not None:
            shape = "cyclic" if self.routing.cyclic else "acyclic"
            pairs.append(("engine", self.routing.engine or "unpinned"))
            pairs.append(("scheme", f"{shape}; {self.routing.reason}"))
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
        return pairs

    def records(self) -> List[Dict[str, Any]]:
        """The run as JSON-ready run-ledger records: one ``profile``
        record (the run-level fields and the summary pairs as rendered),
        then one ``operator`` record per row, in execution order
        (:meth:`repro.obs.ledger.RunLedger.extend` appends them)."""
        profile = {
            "type": "profile",
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
            "qerror": self.qerror,
            "execute_wall_ms": self.execute_wall_ms,
            "phases": {name: dict(numbers) for name, numbers in self.phases.items()},
            "planner_cache": self.planner_cache.to_dict(),
            "executor_cache": self.executor_cache.to_dict(),
            "summary": self._summary(),
        }
        operators = [dict(step.to_dict(), type="operator") for step in self.steps]
        return [profile] + operators

    def render(self) -> str:
        """The ``EXPLAIN ANALYZE`` table plus the run-level summary,
        rendered from :meth:`records`."""
        return render_profile(self.records())

    def __repr__(self) -> str:
        return (
            f"<RunReport {self.strategy.describe()} tau={self.tau} "
            f"steps={len(self.steps)} qerror_max={self.qerror['max']:.2f}>"
        )
