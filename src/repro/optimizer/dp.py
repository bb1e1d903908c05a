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
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterator, Optional, Tuple

from repro.database import Database
from repro.errors import OptimizerError
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.optimizer.spaces import OptimizationResult, SearchSpace
from repro.relational.attributes import AttributeSet
from repro.schemegraph.scheme import DatabaseScheme
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

SchemeKey = FrozenSet[AttributeSet]
Entry = Tuple[int, Strategy]  # (cost, strategy)


def _ordered(key: SchemeKey) -> Tuple[AttributeSet, ...]:
    return tuple(sorted(key, key=lambda s: s.sorted()))


def _all_splits(key: SchemeKey) -> Iterator[Tuple[SchemeKey, SchemeKey]]:
    from itertools import combinations

    ordered = _ordered(key)
    fixed, rest = ordered[0], ordered[1:]
    for size in range(len(rest)):
        for chosen in combinations(rest, size):
            part1 = frozenset((fixed,) + chosen)
            part2 = key - part1
            if part2:
                yield part1, part2


def _linear_splits(key: SchemeKey) -> Iterator[Tuple[SchemeKey, SchemeKey]]:
    for scheme in _ordered(key):
        rest = key - {scheme}
        if rest:
            yield rest, frozenset((scheme,))


def _connectivity_memo() -> Callable[[SchemeKey], bool]:
    """A per-run connectivity oracle memoized by frozenset of schemes.

    The DP's candidate splits revisit the same parts many times (a part of
    one subset is a whole subset elsewhere); without the memo every visit
    rebuilds a :class:`DatabaseScheme` and re-runs the component DFS.
    """
    cache: Dict[SchemeKey, bool] = {}

    def connected(part: SchemeKey) -> bool:
        known = cache.get(part)
        if known is None:
            known = cache[part] = DatabaseScheme(part).is_connected()
        return known

    return connected


def _nocp_filter(
    key: SchemeKey,
    base: Iterator[Tuple[SchemeKey, SchemeKey]],
    connected: Callable[[SchemeKey], bool],
) -> Iterator[Tuple[SchemeKey, SchemeKey]]:
    """Keep only the splits allowed in a CP-avoiding strategy.

    Connected ``key``: both parts connected.  Unconnected ``key``: every
    component entirely inside one part (the scheme/component analysis is
    done once per ``key``, not per split; part connectivity is memoized
    across the whole run via ``connected``).
    """
    scheme = DatabaseScheme(key)
    components = scheme.components()
    if len(components) == 1:
        for part1, part2 in base:
            if connected(part1) and connected(part2):
                yield part1, part2
        return
    component_keys = [frozenset(c.schemes) for c in components]
    for part1, part2 in base:
        if all(c <= part1 or c <= part2 for c in component_keys):
            yield part1, part2


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
    schemes to the cost charged for producing that subset's join; it
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
    memo: Dict[SchemeKey, Optional[Entry]] = {}
    states_solved = 0
    memo_hits = 0
    splits_considered = 0
    plans_pruned = 0

    connected = _connectivity_memo()

    def splits(key: SchemeKey) -> Iterator[Tuple[SchemeKey, SchemeKey]]:
        base = _linear_splits(key) if space.linear_only else _all_splits(key)
        if space.avoids_cartesian_products:
            return _nocp_filter(key, base, connected)
        return base

    def best(key: SchemeKey) -> Optional[Entry]:
        nonlocal states_solved, memo_hits, splits_considered, plans_pruned
        if key in memo:
            memo_hits += 1
            return memo[key]
        if runtime is not None:
            trigger = runtime.charge()
            if trigger is not None:
                raise _Exhausted(trigger)
        states_solved += 1
        if len(key) == 1:
            (scheme,) = key
            entry: Optional[Entry] = (0, Strategy.leaf(db, scheme))
        else:
            tau_here = subset_cost(key)
            entry = None
            for part1, part2 in splits(key):
                splits_considered += 1
                left = best(part1)
                if left is None:
                    continue
                right = best(part2)
                if right is None:
                    continue
                cost = left[0] + right[0] + tau_here
                if entry is None or cost < entry[0]:
                    entry = (cost, Strategy.join(left[1], right[1]))
                else:
                    plans_pruned += 1
        memo[key] = entry
        return entry

    with _TRACER.span(
        "optimize.dp", space=space.value, relations=len(db.scheme)
    ) as span:
        try:
            result = best(frozenset(db.scheme.schemes))
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
        if result is None:
            raise OptimizerError(
                f"the {space.describe()} subspace is empty for {db.scheme}"
            )
        cost, strategy = result
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
