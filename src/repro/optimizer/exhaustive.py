"""Brute-force optimization by subspace enumeration.

This is the ground-truth optimizer: it enumerates every strategy of the
chosen subspace (via :mod:`repro.strategy.enumerate`), evaluates the cost
of each, and keeps the best.  Exponential, but exact -- the test suite
validates the dynamic-programming optimizers against it on every small
database, and the paper's examples are all small enough to settle
exhaustively.

Candidates compete through a :class:`PlanReducer`, which keeps the
incumbent minimum under the deterministic order ``(cost, describe())``
and renders each incumbent's description lazily exactly once.  Because
``describe()`` is injective on strategy trees, that order is total, so
the minimum is unique and does not depend on enumeration order.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.database import Database
from repro.errors import OptimizerError
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.optimizer.spaces import OptimizationResult, SearchSpace
from repro.strategy.cost import tau_cost
from repro.strategy.enumerate import strategies_in_space
from repro.strategy.tree import Strategy

__all__ = ["PlanReducer", "optimize_exhaustive"]

# Search-effort telemetry (docs/observability.md), mirroring optimize_dp:
# a span per optimization and a counter of strategies costed.
_TRACER = get_tracer()
_METRICS = get_registry()
_STRATEGIES = _METRICS.counter(
    "optimizer.exhaustive.strategies", "strategies costed by full enumeration"
)


class PlanReducer:
    """The running minimum of a costed strategy stream.

    The order is ``(cost, describe())`` -- strictly cheaper always wins,
    ties go to the lexicographically smaller description.  The
    incumbent's description is rendered at most once (on the first tie
    it must settle) and cached until the incumbent changes.
    """

    __slots__ = ("best", "best_cost", "considered", "_label")

    def __init__(self):
        self.best = None
        self.best_cost = 0
        self.considered = 0
        self._label: Optional[str] = None

    @property
    def label(self) -> str:
        """The incumbent's description (rendered lazily, once)."""
        if self._label is None:
            self._label = self.best.describe()
        return self._label

    def offer(self, candidate, candidate_cost: int) -> None:
        """Fold one costed candidate into the running minimum."""
        self.considered += 1
        if self.best is None or candidate_cost < self.best_cost:
            self.best = candidate
            self.best_cost = candidate_cost
            self._label = None
        elif candidate_cost == self.best_cost:
            label = candidate.describe()
            if label < self.label:
                self.best = candidate
                self._label = label


def optimize_exhaustive(
    db: Database,
    space: SearchSpace = SearchSpace.ALL,
    cost: Callable[[Strategy], int] = tau_cost,
    runtime=None,
) -> OptimizationResult:
    """Find a cheapest strategy in ``space`` by full enumeration.

    Ties are broken by the strategy's rendered description, so results are
    deterministic.  Strategy costs read ``Strategy.tau``, so the tau-only
    counting path serves the whole enumeration without materializing
    intermediate joins.  Raises :class:`~repro.errors.OptimizerError` when
    the subspace is empty (e.g. linear-and-CP-avoiding over an unconnected
    scheme with two multi-relation components).

    ``runtime`` bounds the search (docs/api.md): one budget unit is
    charged per strategy costed, and on deadline/budget exhaustion the
    search *does not raise* -- it serves a deterministic greedy fallback
    whose :class:`~repro.optimizer.spaces.Degradation` provenance
    records the trigger and how many candidates were covered (partial
    exact results are discarded, never served).
    """
    if runtime is not None:
        trigger = runtime.exhausted()
        if trigger is not None:
            from repro.optimizer.fallback import degrade_to_greedy

            return degrade_to_greedy(db, space, trigger, 0, runtime, "exhaustive")
    reducer = PlanReducer()
    with _TRACER.span(
        "optimize.exhaustive", space=space.value, relations=len(db.scheme)
    ) as span:
        for candidate in strategies_in_space(
            db,
            linear=space.linear_only,
            avoid_cartesian_products=space.avoids_cartesian_products,
        ):
            if runtime is not None:
                trigger = runtime.charge()
                if trigger is not None:
                    span.set_attribute("degraded", True)
                    span.set_attribute("trigger", trigger)
                    span.set_attribute("covered", reducer.considered)
                    from repro.optimizer.fallback import degrade_to_greedy

                    return degrade_to_greedy(
                        db, space, trigger, reducer.considered, runtime, "exhaustive"
                    )
            reducer.offer(candidate, cost(candidate))
        if reducer.best is None:
            raise OptimizerError(
                f"the {space.describe()} subspace is empty for {db.scheme}"
            )
        span.set_attribute("strategies", reducer.considered)
        span.set_attribute("cost", reducer.best_cost)
    if _METRICS.enabled:
        _STRATEGIES.inc(reducer.considered, space=space.value)
    return OptimizationResult(
        reducer.best, reducer.best_cost, space, "exhaustive", reducer.considered
    )
