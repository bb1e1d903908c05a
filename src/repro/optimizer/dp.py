"""Dynamic programming over scheme subsets.

A strategy's tau cost decomposes over its tree: for a subset ``S`` with
``|S| > 1`` evaluated by splitting into ``A`` and ``B``,

    cost(S)  =  cost(A) + cost(B) + tau(R_S),

and ``tau(R_S)`` does not depend on how ``S`` was computed.  The optimal
substructure is therefore exact and a subset DP finds the true optimum of
each subspace.  Per-space *feasibility of a split* encodes the subspace:

* ``ALL`` -- every unordered 2-partition of ``S``;
* ``LINEAR`` -- one part must be a single relation;
* ``NOCP`` -- if ``S`` is connected both parts must be connected (a
  CP-free strategy has connected scheme sets at *every* node); if ``S``
  is unconnected each component of ``S`` must lie entirely inside one
  part (components are evaluated individually, and the cross-part steps
  are exactly the unavoidable Cartesian products);
* ``LINEAR_NOCP`` -- the conjunction.

The number of DP states is at most ``2^n`` (much less for the restricted
spaces), versus ``(2n-3)!!`` enumerated strategies -- the tractability
gap the paper's introduction describes.

States are int masks over the scheme's
:class:`~repro.schemegraph.index.SubsetIndex` (relation ``i`` in
sorted-scheme order is bit ``1 << i``), which also supplies the
components the CP-avoiding filters read.  The memo keeps a cost and the
winning split per state; :class:`~repro.strategy.tree.Strategy` nodes
are built for the winning plan only, once the search is over.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Dict, List, Optional

from repro.database import Database
from repro.errors import OptimizerError
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.optimizer.spaces import OptimizationResult, SearchSpace
from repro.schemegraph.index import SubsetIndex, bits_of
from repro.strategy.tree import Strategy

__all__ = ["optimize_dp"]

# Search-effort telemetry (docs/observability.md).  The DP keeps its
# counters as local ints regardless (they cost nothing) and publishes
# them to the span/registry only when observability is on.
_TRACER = get_tracer()
_METRICS = get_registry()
_STATES = _METRICS.counter("optimizer.dp.states", "DP subproblems expanded")
_MEMO_HITS = _METRICS.counter("optimizer.dp.memo_hits", "DP memo-table hits")
_SPLITS = _METRICS.counter("optimizer.dp.splits", "candidate splits evaluated")
_PRUNED = _METRICS.counter(
    "optimizer.dp.plans_pruned", "split candidates beaten by a cheaper plan"
)

def _splits(
    index: SubsetIndex,
    space: SearchSpace,
    mask: int,
    connected: Callable[[int], bool],
) -> List[int]:
    """Part 1 of each split of ``mask`` (two or more relations) that
    ``space`` allows, in the order the DP tries them; part 2 is the rest.

    ``ALL`` keeps the lowest relation in part 1 and draws the rest of
    part 1 from the others by ``combinations``, smallest first;
    ``LINEAR`` peels one relation per split, in sorted order.  The
    CP-avoiding spaces then filter: a connected ``mask`` needs both parts
    connected, and an unconnected one needs every component inside one
    part (components are evaluated individually, and the cross-part
    steps are exactly the unavoidable Cartesian products).
    """
    members = bits_of(mask)
    if space.linear_only:
        parts = [mask ^ bit for bit in members]
    else:
        low, rest = members[0], members[1:]
        parts = [
            low + sum(chosen)
            for size in range(len(rest))
            for chosen in combinations(rest, size)
        ]
    if not space.avoids_cartesian_products:
        return parts
    components = index.components(mask)
    if len(components) == 1:
        return [part for part in parts if connected(part) and connected(mask ^ part)]
    return [
        part
        for part in parts
        if all(c & part == c or not c & part for c in components)
    ]


def _strategy(
    db: Database, index: SubsetIndex, chosen: Dict[int, int], mask: int
) -> Strategy:
    """The winning plan of ``mask``: ``chosen`` maps every solved
    multi-relation state to the part 1 of its cheapest split."""
    part1 = chosen.get(mask)
    if part1 is None:
        return Strategy.leaf(db, index.schemes[mask.bit_length() - 1])
    return Strategy.join(
        _strategy(db, index, chosen, part1),
        _strategy(db, index, chosen, mask ^ part1),
    )


class _Exhausted(Exception):
    """Internal control flow: the runtime stopped the DP mid-recursion."""

    def __init__(self, trigger: str):
        self.trigger = trigger


def optimize_dp(
    db: Database,
    space: SearchSpace = SearchSpace.ALL,
    subset_cost=None,
    runtime=None,
) -> OptimizationResult:
    """Find a cheapest strategy in ``space`` by subset dynamic programming.

    Returns an actual :class:`~repro.strategy.tree.Strategy` (so membership
    in the space can be re-validated) together with its cost under the
    optimizer's cost source.  ``subset_cost`` maps a frozenset of relation
    schemes to the cost charged for producing that subset's join, and is
    called once per multi-relation state; it
    defaults to the *true* tau (``db.tau_of``).  Passing an estimator here
    turns this into a classical estimate-driven optimizer (see
    :mod:`repro.optimizer.estimate`).  Raises
    :class:`~repro.errors.OptimizerError` when the space is empty for the
    database's scheme.

    ``runtime`` bounds the search (docs/api.md): one budget unit is
    charged per DP state expanded.  On deadline/budget exhaustion the DP
    *does not raise* -- it abandons the memo table and serves a
    deterministic greedy fallback with ``degraded=True`` provenance.
    """
    if subset_cost is None:
        subset_cost = db.tau_of
    index = db.scheme.subset_index()
    # memo: mask -> the cheapest cost (None: no plan in the space);
    # chosen: mask -> part 1 of that cost's split.
    memo: Dict[int, Optional[int]] = {}
    chosen: Dict[int, int] = {}
    connectivity: Dict[int, bool] = {}
    states_solved = 0
    memo_hits = 0
    splits_considered = 0
    plans_pruned = 0

    def connected(part: int) -> bool:
        known = connectivity.get(part)
        if known is None:
            known = connectivity[part] = len(index.components(part)) == 1
        return known

    def best(mask: int) -> Optional[int]:
        nonlocal states_solved, memo_hits, splits_considered, plans_pruned
        if mask in memo:
            memo_hits += 1
            return memo[mask]
        if runtime is not None:
            trigger = runtime.charge()
            if trigger is not None:
                raise _Exhausted(trigger)
        states_solved += 1
        cost: Optional[int] = 0
        if mask & (mask - 1):
            tau_here = subset_cost(frozenset(index.members(mask)))
            cost = None
            for part1 in _splits(index, space, mask, connected):
                splits_considered += 1
                left = best(part1)
                if left is None:
                    continue
                right = best(mask ^ part1)
                if right is None:
                    continue
                total = left + right + tau_here
                if cost is None or total < cost:
                    cost = total
                    chosen[mask] = part1
                else:
                    plans_pruned += 1
        memo[mask] = cost
        return cost

    with _TRACER.span(
        "optimize.dp", space=space.value, relations=len(db.scheme)
    ) as span:
        try:
            cost = best(index.full)
        except _Exhausted as stop:
            span.set_attribute("degraded", True)
            span.set_attribute("trigger", stop.trigger)
            span.set_attribute("covered", states_solved)
            from repro.optimizer.fallback import degrade_to_greedy

            return degrade_to_greedy(
                db, space, stop.trigger, states_solved, runtime, "dp"
            )
        finally:
            # best() reaches itself through its closure cell.  Emptying
            # the cell breaks that cycle, so db, subset_cost and the memo
            # are freed by reference counting, not by the cyclic collector.
            del best
        if cost is None:
            raise OptimizerError(
                f"the {space.describe()} subspace is empty for {db.scheme}"
            )
        strategy = _strategy(db, index, chosen, index.full)
        span.set_attribute("states", states_solved)
        span.set_attribute("memo_hits", memo_hits)
        span.set_attribute("splits", splits_considered)
        span.set_attribute("pruned", plans_pruned)
        span.set_attribute("cost", cost)
    if _METRICS.enabled:
        _STATES.inc(states_solved, space=space.value)
        _MEMO_HITS.inc(memo_hits, space=space.value)
        _SPLITS.inc(splits_considered, space=space.value)
        _PRUNED.inc(plans_pruned, space=space.value)
    return OptimizationResult(strategy, cost, space, "dp", states_solved)
