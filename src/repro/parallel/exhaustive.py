"""Stripe exhaustive strategy enumeration across forked workers.

Worker ``w`` of ``n`` enumerates the full strategy stream but costs
only positions ``index % n == w`` -- the enumeration itself is cheap
relative to costing (every cost evaluation walks a strategy's join
cardinalities), so re-running the generator per worker buys an even,
deterministic partition with no inter-process streaming.

Each worker reduces its stripe with the optimizer's own
:class:`~repro.optimizer.exhaustive.PlanReducer` and ships back
``(cost, label, spec)`` -- the strategy itself holds a database
reference and interned ids, so it travels as a nested scheme spec and
is rebuilt against the parent's database.  The parent merges the chunk
winners through the same reducer (labels pre-rendered in the workers,
so no describe() is re-computed), which provably picks the sequential
winner: the reduction order ``(cost, describe())`` is total because
``describe()`` is injective on strategy trees.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.database import Database
from repro.errors import OptimizerError
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.optimizer.exhaustive import PlanReducer
from repro.optimizer.spaces import OptimizationResult, SearchSpace
from repro.parallel.context import (
    START_METHOD,
    ParallelContext,
    warm_connected_taus,
    worker_runtime,
)
from repro.relational.attributes import AttributeSet
from repro.strategy.cost import tau_cost
from repro.strategy.enumerate import strategies_in_space
from repro.strategy.tree import Strategy

__all__ = ["optimize_exhaustive_parallel", "parallel_tau_costs"]

_TRACER = get_tracer()
_METRICS = get_registry()


def _strategy_spec(strategy: Strategy):
    """A picklable structural image of a strategy: leaves are sorted
    attribute-name tuples, internal nodes are (left, right) pairs."""
    if strategy.is_leaf:
        return strategy.scheme_set.sorted_schemes()[0].sorted()
    return (_strategy_spec(strategy.left), _strategy_spec(strategy.right))


def _strategy_from_spec(db: Database, spec) -> Strategy:
    """Rebuild a strategy from :func:`_strategy_spec` against ``db``."""
    if isinstance(spec[0], str):
        return Strategy.leaf(db, AttributeSet(spec))
    return Strategy.join(
        _strategy_from_spec(db, spec[0]), _strategy_from_spec(db, spec[1])
    )


class _ChunkWinner:
    """A chunk's winning plan as it crosses the process boundary: the
    spec plus its pre-rendered description, duck-typed so the parent can
    feed it straight back into a :class:`PlanReducer`."""

    __slots__ = ("spec", "_label")

    def __init__(self, spec, label: str):
        self.spec = spec
        self._label = label

    def describe(self) -> str:
        return self._label


def _cost_chunk(db, extra, worker_index):
    """Worker body: cost this worker's stripe of the strategy stream.

    Returns ``(winner, considered, trigger)``.  Under a runtime, one
    budget unit is charged per strategy *costed* (matching the
    sequential checker); on exhaustion the stripe stops and reports the
    trigger -- the parent then discards every stripe's partial winner
    and serves the deterministic greedy fallback, so a degraded plan is
    identical for any worker count.
    """
    space = extra["space"]
    cost = extra["cost"]
    stride = extra["stride"]
    runtime = worker_runtime()
    trigger = None
    reducer = PlanReducer()
    for index, candidate in enumerate(
        strategies_in_space(
            db,
            linear=space.linear_only,
            avoid_cartesian_products=space.avoids_cartesian_products,
        )
    ):
        if index % stride != worker_index:
            continue
        if runtime is not None:
            trigger = runtime.charge()
            if trigger is not None:
                break
        reducer.offer(candidate, cost(candidate))
    if reducer.best is None:
        return None, reducer.considered, trigger
    winner = (reducer.best_cost, reducer.label, _strategy_spec(reducer.best))
    return winner, reducer.considered, trigger


def optimize_exhaustive_parallel(
    db: Database,
    space: SearchSpace,
    cost,
    workers: int,
    runtime=None,
) -> OptimizationResult:
    """The parallel twin of :func:`~repro.optimizer.exhaustive.optimize_exhaustive`.

    ``runtime`` bounds the sweep exactly like the sequential path: an
    already-exhausted runtime degrades before paying the fork cost, and
    if *any* stripe exhausts mid-sweep every stripe's partial winner is
    discarded in favor of the deterministic greedy fallback (so the
    degraded plan is byte-identical for any ``jobs``).  A cancelled
    token raises :class:`~repro.errors.OperationCancelled` out of the
    workers and terminates the pool.
    """
    if runtime is not None:
        trigger = runtime.exhausted()
        if trigger is not None:
            from repro.optimizer.fallback import degrade_to_greedy

            return degrade_to_greedy(db, space, trigger, 0, runtime, "exhaustive")
    with _TRACER.span(
        "optimize.exhaustive",
        space=space.value,
        relations=len(db.scheme),
        jobs=workers,
        start_method=START_METHOD,
    ) as span:
        # Every tau-costed strategy walks the same connected-subset
        # counts; warm that shared table once (in parallel) so stripe
        # workers inherit it through the snapshot instead of each
        # re-deriving it.  Custom cost functions may not touch taus at
        # all, so only the default costing triggers the warm phase.
        # Bounded runs skip it: the warm sweep does not poll the
        # runtime, so on a tight deadline it could eat the whole
        # allowance before any strategy was costed.
        if cost is tau_cost and runtime is None:
            warm_connected_taus(db, workers)
        extra = {"space": space, "cost": cost, "stride": workers}
        with ParallelContext(db=db, jobs=workers, extra=extra, runtime=runtime) as ctx:
            results = ctx.run(
                _cost_chunk,
                [(worker,) for worker in range(workers)],
                parent_span_id=getattr(span, "span_id", None),
            )
        reducer = PlanReducer()
        considered = 0
        trigger = None
        for winner, chunk_considered, chunk_trigger in results:
            considered += chunk_considered
            if chunk_trigger is not None and trigger is None:
                trigger = chunk_trigger
            if winner is not None:
                chunk_cost, label, spec = winner
                reducer.offer(_ChunkWinner(spec, label), chunk_cost)
        if trigger is not None:
            span.set_attribute("degraded", True)
            span.set_attribute("trigger", trigger)
            span.set_attribute("covered", considered)
            from repro.optimizer.fallback import degrade_to_greedy

            return degrade_to_greedy(db, space, trigger, considered, runtime, "exhaustive")
        if reducer.best is None:
            raise OptimizerError(
                f"the {space.describe()} subspace is empty for {db.scheme}"
            )
        # offer() counted the chunk winners; the real tally is the sum of
        # per-stripe considered counts.
        reducer.considered = considered
        span.set_attribute("strategies", considered)
        span.set_attribute("cost", reducer.best_cost)
    if _METRICS.enabled:
        _METRICS.counter(
            "optimizer.exhaustive.strategies",
            "strategies costed by full enumeration",
        ).inc(considered, space=space.value)
    best = _strategy_from_spec(db, reducer.best.spec)
    return OptimizationResult(best, reducer.best_cost, space, "exhaustive", considered)


# -- parallel strategy costing (repro.strategy.sampling) -----------------------


def _tau_cost_chunk(db, extra, specs):
    """Worker body: tau-cost each strategy spec in the chunk."""
    return tuple(tau_cost(_strategy_from_spec(db, spec)) for spec in specs)


def parallel_tau_costs(
    db: Database, strategies: List[Strategy], workers: int
) -> List[int]:
    """Tau-cost sampled strategies across workers, preserving order."""
    warm_connected_taus(db, workers)
    specs = [_strategy_spec(strategy) for strategy in strategies]
    chunked = [
        (worker, tuple(specs[worker::workers]))
        for worker in range(workers)
        if specs[worker::workers]
    ]
    with ParallelContext(db=db, jobs=workers, extra=None) as ctx:
        results = ctx.run(_tau_cost_chunk, [(chunk,) for _, chunk in chunked])
    costs: List[Optional[int]] = [None] * len(specs)
    for (worker, _), chunk_costs in zip(chunked, results):
        for offset, value in enumerate(chunk_costs):
            costs[worker + offset * workers] = value
    return [c for c in costs if c is not None]
