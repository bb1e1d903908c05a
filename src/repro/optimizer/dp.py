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
components the CP-avoiding filters read.  The search is one bottom-up
pass over the states in ascending mask order: a proper subset of a state
is a smaller mask, so both parts of every split are solved before the
state, and the whole scheme's tau is the last one asked for.  A state's
tau is the same term in every split, so the DP picks the split from its
parts' costs first and asks for the tau after; a state with no plan in
the space needs none.  With the default cost source the DP keeps each
solved state's tau beside its cost and asks the database for connected
states only: a single relation's tau is its length, and an unconnected
state's join is the Cartesian product of its components' joins, so its
tau is its lowest component's times the rest's, both solved already.
Costs sit in a table indexed by mask, with the winning split per state;
:class:`~repro.strategy.tree.Strategy` nodes are built for the winning
plan only, once the search is over.

On an unpinned database, asking for the tau of a cyclic component ``C``
first hands ``C`` to
:meth:`~repro.optimizer.route.EngineRouter.decide_cyclic`: the winning
split fixes I, what ``C``'s plan produces below its root, and the
executor the router picks (Generic Join or that plan, run binary)
builds ``R_C`` into the join memo, so tau(R_C) is its length.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.database import Database
from repro.errors import OptimizerError
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.optimizer.route import CyclicDecision, EngineRouter
from repro.optimizer.spaces import OptimizationResult, SearchSpace
from repro.relational.relation import Relation
from repro.schemegraph.index import SubsetIndex, bits_of
from repro.strategy.tree import Strategy, run

__all__ = ["optimize_dp"]

# Search-effort telemetry (docs/observability.md).  The DP keeps its
# counters as local ints regardless (they cost nothing) and publishes
# them to the span/registry only when observability is on.
_TRACER = get_tracer()
_METRICS = get_registry()
_STATES = _METRICS.counter("optimizer.dp.states", "DP subproblems expanded")
_SPLITS = _METRICS.counter("optimizer.dp.splits", "candidate splits evaluated")
_PRUNED = _METRICS.counter(
    "optimizer.dp.plans_pruned", "feasible splits that lose to the winning split"
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


def _reached(
    index: SubsetIndex, space: SearchSpace, connected: Callable[[int], bool]
) -> Dict[int, List[int]]:
    """Every state a restricted space reaches from the whole scheme, each
    with its :func:`_splits`: both parts of every split are states."""
    reached: Dict[int, List[int]] = {}
    pending = [index.full]
    while pending:
        mask = pending.pop()
        if mask in reached:
            continue
        parts = reached[mask] = (
            _splits(index, space, mask, connected) if mask & (mask - 1) else []
        )
        for part1 in parts:
            pending.append(part1)
            pending.append(mask ^ part1)
    return reached


def _earlier(part1: int, other: int) -> bool:
    """Whether ``part1`` comes before ``other`` in the ``combinations``
    order :func:`_splits` lists ``ALL``'s splits in: fewer relations
    first, and between equal sizes, the part holding the lowest relation
    of the two parts' symmetric difference."""
    size, other_size = bin(part1).count("1"), bin(other).count("1")
    if size != other_size:
        return size < other_size
    differ = part1 ^ other
    return bool(part1 & differ & -differ)


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


def _route_cyclic(
    db: Database, index: SubsetIndex, chosen: Dict[int, int], mask: int, inner: int
) -> Tuple[CyclicDecision, Callable[[], Relation]]:
    """The router's decision for the cyclic component ``mask``, whose
    winning plan produces ``inner`` tuples below its root, and the build
    of ``R_mask`` it picks: Generic Join through the database's kernel
    entry, or the plan run binary, each through the join memo."""
    decision = EngineRouter.decide_cyclic(db, mask, inner)
    if decision.engine == "plan":
        return decision, partial(run, _strategy(db, index, chosen, mask))
    subset = frozenset(index.members(mask))
    kernel = partial(db.run_kernel, decision.engine, subset, mask)
    return decision, partial(db._join_memo, subset, kernel)


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
    schemes to the cost charged for producing that subset's join.  It is
    called once per multi-relation state that has a plan in the space,
    every proper subset before the subset itself and after the subset's
    split is chosen, so the whole scheme comes last.  It defaults to the
    *true* tau: :meth:`Database.tau_of_mask` (which ``db.tau_of``
    resolves to) for each connected state, and the product of the DP's
    own taus of its components for an unconnected one (see the module
    docstring).  Passing an estimator here turns this
    into a classical estimate-driven optimizer (see
    :mod:`repro.optimizer.estimate`).  Raises
    :class:`~repro.errors.OptimizerError` when the space is empty for the
    database's scheme.

    Between splits of equal cost the earliest in :func:`_splits` order
    wins.  ``ALL`` enumerates its splits as submasks and breaks ties by
    that order (:func:`_earlier`); the other spaces try their splits in
    that order.

    On an unpinned database, the call for a cyclic component's tau
    builds the component's join with the executor the router picks from
    the winning split (see the module docstring); a ``subset_cost`` that
    does not reach the database leaves it unbuilt.

    ``runtime`` bounds the search (docs/api.md): one budget unit is
    charged per DP state expanded.  On deadline/budget exhaustion the DP
    *does not raise* -- it abandons the cost table and serves a
    deterministic greedy fallback with ``degraded=True`` provenance.
    """
    index = db.scheme.subset_index()
    if subset_cost is None:
        tau = db.tau_of_mask
    else:
        members = index.members

        def tau(mask: int):
            return subset_cost(frozenset(members(mask)))

    full = index.full
    # An unpinned database's cyclic components, decided on their plans.
    routed = () if db.engine is not None else {
        mask for mask, tree in db.component_trees() if tree is None
    }
    # cost[mask]: the cheapest cost of a state (None: no plan in the
    # space); chosen: mask -> part 1 of that cost's split; taus[mask]:
    # with the default cost source, the tau of each solved state.
    chosen: Dict[int, int] = {}
    taus: Union[None, List[int], Dict[int, int]] = None
    if space is SearchSpace.ALL:
        # Every subset is a state, and every split is feasible.
        reached = None
        states = range(1, full + 1)
        cost: Union[List, Dict[int, Optional[int]]] = [0] * (full + 1)
        if subset_cost is None:
            taus = [0] * (full + 1)
    else:
        if subset_cost is None:
            taus = {}
        connectivity: Dict[int, bool] = {}

        def connected(part: int) -> bool:
            known = connectivity.get(part)
            if known is None:
                known = connectivity[part] = index.component(part) == part
            return known

        reached = _reached(index, space, connected)
        states = sorted(reached)
        cost = {}
    if taus is not None:
        for bit, rel in zip(bits_of(full), db.relations()):
            taus[bit] = len(rel)
    states_solved = 0
    splits_considered = 0
    plans_pruned = 0

    with _TRACER.span(
        "optimize.dp", space=space.value, relations=len(db.scheme)
    ) as span:
        for mask in states:
            if runtime is not None:
                trigger = runtime.charge()
                if trigger is not None:
                    span.set_attribute("degraded", True)
                    span.set_attribute("trigger", trigger)
                    span.set_attribute("covered", states_solved)
                    from repro.optimizer.fallback import degrade_to_greedy

                    return degrade_to_greedy(
                        db, space, trigger, states_solved, runtime, "dp"
                    )
            states_solved += 1
            if not mask & (mask - 1):
                cost[mask] = 0
                continue
            # best: the parts' cost of the winning split; the state's
            # own tau, the same in every split, is added after.
            if reached is None:
                # Part 1 holds the lowest relation and a proper submask
                # of the rest, from the largest submask down to none.
                low = mask & -mask
                rest = mask ^ low
                sub = (rest - 1) & rest
                best = cost[low | sub] + cost[rest ^ sub]
                win = low | sub
                while sub:
                    sub = (sub - 1) & rest
                    total = cost[low | sub] + cost[rest ^ sub]
                    if total < best or (total == best and _earlier(low | sub, win)):
                        best = total
                        win = low | sub
                feasible = (1 << bin(rest).count("1")) - 1
                splits_considered += feasible
            else:
                best = None
                feasible = 0
                for part1 in reached[mask]:
                    splits_considered += 1
                    left = cost[part1]
                    right = cost[mask ^ part1]
                    if left is None or right is None:
                        continue
                    feasible += 1
                    total = left + right
                    if best is None or total < best:
                        best = total
                        win = part1
            if best is None:
                # No plan in the space: no tau either.
                cost[mask] = None
                continue
            chosen[mask] = win
            plans_pruned += feasible - 1
            low = mask if taus is None else index.component(mask)
            if low != mask:
                # The join of an unconnected state is the Cartesian
                # product of its components' joins, both solved already.
                tau_here = taus[low]
                rest = mask ^ low
                if reached is not None:
                    # LINEAR_NOCP may not reach the rest, but it solves
                    # every component of a state it has a plan for.
                    while rest not in taus:
                        low = index.component(rest)
                        tau_here *= taus[low]
                        rest ^= low
                tau_here *= taus[rest]
            elif mask in routed:
                with db.deferring(
                    mask, partial(_route_cyclic, db, index, chosen, mask, best)
                ):
                    tau_here = tau(mask)
            else:
                tau_here = tau(mask)
            if taus is not None:
                taus[mask] = tau_here
            cost[mask] = best + tau_here
        total_cost = cost[full]
        if total_cost is None:
            raise OptimizerError(
                f"the {space.describe()} subspace is empty for {db.scheme}"
            )
        strategy = _strategy(db, index, chosen, full)
        span.set_attribute("states", states_solved)
        span.set_attribute("splits", splits_considered)
        span.set_attribute("pruned", plans_pruned)
        span.set_attribute("cost", total_cost)
    if _METRICS.enabled:
        _STATES.inc(states_solved, space=space.value)
        _SPLITS.inc(splits_considered, space=space.value)
        _PRUNED.inc(plans_pruned, space=space.value)
    return OptimizationResult(strategy, total_cost, space, "dp", states_solved)
