"""Exhaustive enumeration of strategy subspaces, plus census formulas.

The paper's introduction counts the strategies for four relations: 15 in
all, of which 12 are linear.  In general, with children unordered (joins
commute), the number of strategies for ``n`` relations is the double
factorial ``(2n-3)!!`` and the number of linear strategies is ``n!/2``
(for ``n >= 2``).  :func:`count_all_strategies` and
:func:`count_linear_strategies` implement the formulas; the generators
below materialize the actual trees and are the ground truth against which
the dynamic-programming optimizers are validated.

Key structural fact used by the no-Cartesian-product generator: in a
strategy with no CP step, *every* node's scheme set is connected (an
unconnected node would need a CP step somewhere beneath it to combine its
components).  So CP-free strategies over a connected scheme are generated
by recursively splitting into two connected parts; over an unconnected
scheme, the paper's *avoids Cartesian products* means each component is
evaluated individually by a CP-free substrategy and the components are
then combined by the unavoidable ``comp(D)-1`` Cartesian products.
"""

from __future__ import annotations

from itertools import combinations
from math import factorial
from typing import Dict, FrozenSet, Iterator, List, Tuple

from repro.database import Database
from repro.errors import StrategyError
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.relational.attributes import AttributeSet
from repro.schemegraph.scheme import DatabaseScheme
from repro.strategy.tree import Strategy

__all__ = [
    "all_strategies",
    "linear_strategies",
    "nocp_strategies",
    "linear_nocp_strategies",
    "strategies_in_space",
    "count_all_strategies",
    "count_linear_strategies",
]

SchemeKey = FrozenSet[AttributeSet]

# Enumeration telemetry (docs/observability.md): how many strategies
# each subspace generator actually yields, labeled by subspace.
_TRACER = get_tracer()
_METRICS = get_registry()
_ENUMERATED = _METRICS.counter(
    "strategy.enumerated", "strategies yielded by the subspace generators"
)


def _counted(source: Iterator[Strategy], space: str) -> Iterator[Strategy]:
    """Wrap a generator so its yield count is published when observability
    is on (one flag check per call, not per yield, when off)."""
    if not _TRACER.enabled:
        yield from source
        return
    with _TRACER.span("strategy.enumerate", space=space) as span:
        count = 0
        try:
            for strategy in source:
                count += 1
                yield strategy
        finally:
            # Publish even when the consumer abandons the generator early.
            span.set_attribute("strategies", count)
            _ENUMERATED.inc(count, space=space)


def _subset_key(db: Database, subset) -> SchemeKey:
    if subset is None:
        return frozenset(db.scheme.schemes)
    if isinstance(subset, DatabaseScheme):
        return frozenset(subset.schemes)
    return frozenset(DatabaseScheme(subset).schemes)


def _splits(schemes: Tuple[AttributeSet, ...]) -> Iterator[Tuple[Tuple[AttributeSet, ...], Tuple[AttributeSet, ...]]]:
    """Unordered 2-partitions of ``schemes`` into nonempty parts.

    The first scheme is pinned to the first part, so each partition is
    produced exactly once.
    """
    fixed, rest = schemes[0], schemes[1:]
    for size in range(len(rest)):
        for chosen in combinations(rest, size):
            part1 = (fixed,) + chosen
            part2 = tuple(s for s in rest if s not in chosen)
            if part2:
                yield part1, part2


def _iter_all(db: Database, subset=None) -> Iterator[Strategy]:
    """Stream every strategy, lazily.

    The recursion yields as it goes instead of materializing per-subset
    result tuples: the first candidate arrives in microseconds even when
    the full space is astronomically large, which is what lets a
    runtime-bounded consumer (docs/api.md) stop after a few candidates
    without paying for -- or holding in memory -- the whole subspace.
    Subsets of the sorted scheme tuple stay sorted, so the yield order is
    deterministic.
    """

    def build(ordered: Tuple[AttributeSet, ...]) -> Iterator[Strategy]:
        if len(ordered) == 1:
            yield Strategy.leaf(db, ordered[0])
            return
        for part1, part2 in _splits(ordered):
            for left in build(part1):
                for right in build(part2):
                    yield Strategy.join(left, right)

    key = _subset_key(db, subset)
    yield from build(tuple(sorted(key, key=lambda s: s.sorted())))


def _iter_linear(db: Database, subset=None) -> Iterator[Strategy]:
    key = _subset_key(db, subset)
    ordered = tuple(sorted(key, key=lambda s: s.sorted()))
    if len(ordered) == 1:
        yield Strategy.leaf(db, ordered[0])
        return

    def build(prefix: Tuple[AttributeSet, ...]) -> Strategy:
        node = Strategy.leaf(db, prefix[0])
        for scheme in prefix[1:]:
            node = Strategy.join(node, Strategy.leaf(db, scheme))
        return node

    seen = set()
    from itertools import permutations

    for order in permutations(ordered):
        # The first two leaves commute; canonicalize to dedupe.
        if order[0].sorted() > order[1].sorted():
            continue
        strategy = build(order)
        if strategy not in seen:
            seen.add(strategy)
            yield strategy


def _part_connected(
    part: Tuple[AttributeSet, ...], conn: Dict[SchemeKey, bool]
) -> bool:
    """Connectivity of one split part, memoized per frozenset across the
    whole enumeration -- the same part shows up in many candidate splits,
    and each connectivity check is a component DFS."""
    part_key = frozenset(part)
    known = conn.get(part_key)
    if known is None:
        known = conn[part_key] = DatabaseScheme(part).is_connected()
    return known


def _connected_strategies(
    db: Database,
    ordered: Tuple[AttributeSet, ...],
    conn: Dict[SchemeKey, bool],
) -> Iterator[Strategy]:
    """Stream all CP-free strategies for a *connected* scheme subset.

    Lazy for the same reason as :func:`_iter_all`: a runtime-bounded
    consumer must see the first candidate promptly, however large the
    subspace.  Only the connectivity verdicts are memoized (``conn``).
    """
    if len(ordered) == 1:
        yield Strategy.leaf(db, ordered[0])
        return
    for part1, part2 in _splits(ordered):
        if not (_part_connected(part1, conn) and _part_connected(part2, conn)):
            continue
        for left in _connected_strategies(db, part1, conn):
            for right in _connected_strategies(db, part2, conn):
                yield Strategy.join(left, right)


def _iter_nocp(db: Database, subset=None) -> Iterator[Strategy]:
    key = _subset_key(db, subset)
    scheme = DatabaseScheme(key)
    components = scheme.components()
    conn: Dict[SchemeKey, bool] = {}

    def sorted_schemes(schemes) -> Tuple[AttributeSet, ...]:
        return tuple(sorted(schemes, key=lambda s: s.sorted()))

    if len(components) == 1:
        yield from _connected_strategies(db, sorted_schemes(key), conn)
        return

    per_component: List[Tuple[Strategy, ...]] = [
        tuple(_connected_strategies(db, sorted_schemes(component.schemes), conn))
        for component in components
    ]

    def combine(blocks: Tuple[Strategy, ...]) -> Iterator[Strategy]:
        """All binary trees over the given component strategies."""
        if len(blocks) == 1:
            yield blocks[0]
            return
        indices = tuple(range(len(blocks)))
        for size in range(1, len(indices)):
            for chosen in combinations(indices[1:], size - 1):
                part1 = (0,) + chosen
                part2 = tuple(i for i in indices if i not in part1)
                left_blocks = tuple(blocks[i] for i in part1)
                right_blocks = tuple(blocks[i] for i in part2)
                for left in combine(left_blocks):
                    for right in combine(right_blocks):
                        yield Strategy.join(left, right)

    from itertools import product

    for assignment in product(*per_component):
        yield from combine(tuple(assignment))


def all_strategies(db: Database, subset=None) -> Iterator[Strategy]:
    """Every strategy for the database (or for a subset of its schemes).

    Enumerates ``(2n-3)!!`` trees, lazily -- the stream starts
    immediately and holds no per-subset result tables, so consumers can
    abandon it early (runtime-bounded searches do).
    """
    return _counted(_iter_all(db, subset), "all")


def linear_strategies(db: Database, subset=None) -> Iterator[Strategy]:
    """Every linear strategy: ``n!/2`` trees for ``n >= 2`` relations."""
    return _counted(_iter_linear(db, subset), "linear")


def nocp_strategies(db: Database, subset=None) -> Iterator[Strategy]:
    """Every strategy that *avoids Cartesian products* (paper, Section 2).

    For a connected scheme this is exactly the CP-free ("connected")
    strategies; for an unconnected scheme, each component is evaluated
    individually by a CP-free substrategy and the component results are
    combined by every possible binary tree of the unavoidable Cartesian
    products.
    """
    return _counted(_iter_nocp(db, subset), "nocp")


def linear_nocp_strategies(db: Database, subset=None) -> Iterator[Strategy]:
    """Every strategy that is linear *and* avoids Cartesian products."""
    return _counted(
        (s for s in _iter_nocp(db, subset) if s.is_linear()), "linear_nocp"
    )


def strategies_in_space(
    db: Database,
    subset=None,
    linear: bool = False,
    avoid_cartesian_products: bool = False,
) -> Iterator[Strategy]:
    """Enumerate a strategy subspace selected by flags.

    ``linear`` restricts to linear strategies; ``avoid_cartesian_products``
    restricts to strategies avoiding Cartesian products; both may be
    combined (System R's subspace).
    """
    if avoid_cartesian_products:
        source = _iter_nocp(db, subset)
        if linear:
            return _counted(
                (s for s in source if s.is_linear()), "linear_nocp"
            )
        return _counted(source, "nocp")
    if linear:
        return _counted(_iter_linear(db, subset), "linear")
    return _counted(_iter_all(db, subset), "all")


def count_all_strategies(n: int) -> int:
    """``(2n-3)!!``: the number of strategies for ``n`` relations.

    Matches the paper's count of 15 for four relations.
    """
    if n < 1:
        raise StrategyError("a database has at least one relation")
    if n == 1:
        return 1
    result = 1
    for odd in range(1, 2 * n - 2, 2):
        result *= odd
    return result


def count_linear_strategies(n: int) -> int:
    """``n!/2``: the number of linear strategies for ``n >= 2`` relations
    (12 for four relations, as in the paper's introduction)."""
    if n < 1:
        raise StrategyError("a database has at least one relation")
    if n == 1:
        return 1
    return factorial(n) // 2
