"""The full semijoin reducer: two sweeps make the tree globally consistent.

Bottom-up, each parent is semijoined with every child (a parent row
survives only if some child row agrees with it on the shared
attributes); top-down, each child is semijoined with its reduced parent.
After both sweeps the states form a *full reduction*: by the running
intersection property of the join tree, every remaining tuple of every
node extends to at least one tuple of the full join (Yannakakis 1981).
That is what bounds the join phase -- no intermediate can hold a tuple
that will later die.

Both sweeps short-circuit to "everything is empty" the moment any state
empties: an empty node makes the whole join empty, and the caller can
skip the join phase outright.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.obs.metrics import get_registry
from repro.relational.columnar import ColumnarTable, semijoin_tables

__all__ = ["full_reduce", "bfs_order"]

_METRICS = get_registry()
_SEMIJOINS = _METRICS.counter(
    "yannakakis.semijoins", "semijoins executed by the full reducer"
)


def bfs_order(
    adjacency: Dict[int, Set[int]], root: int
) -> List[Tuple[int, Optional[int]]]:
    """A (node, parent) listing of the join tree in BFS order, each
    node's children in ascending order: over relation bits from the
    lowest one, the listing
    :meth:`~repro.schemegraph.index.SubsetIndex.join_tree` returns its
    edges in."""
    order: List[Tuple[int, Optional[int]]] = [(root, None)]
    seen = {root}
    queue = [root]
    while queue:
        node = queue.pop(0)
        for neighbor in sorted(adjacency[node]):
            if neighbor not in seen:
                seen.add(neighbor)
                order.append((neighbor, node))
                queue.append(neighbor)
    return order


def full_reduce(
    tables: Dict[int, ColumnarTable],
    order: List[Tuple[int, Optional[int]]],
    charge=None,
) -> bool:
    """Run both sweeps over ``tables`` in place.

    ``order`` is a rooted ``(node, parent)`` listing with every parent
    before its children, such as :func:`bfs_order`'s.  Returns
    ``False`` when some state emptied (the join is empty -- the caller
    should not bother joining).  ``charge`` (rows -> None) is invoked
    with each semijoin's input size so the runtime can meter the work.
    """
    counting = _METRICS.enabled
    semijoins = 0
    # Bottom-up: leaves first, so by the time a node reduces its parent
    # the node itself already reflects its whole subtree.
    for node, parent in reversed(order):
        if parent is None:
            continue
        if charge is not None:
            charge(len(tables[parent]) + len(tables[node]) + 1)
        reduced = semijoin_tables(tables[parent], tables[node])
        semijoins += 1
        tables[parent] = reduced
        if not len(reduced):
            if counting:
                _SEMIJOINS.inc(semijoins)
            return False
    # Top-down: the root is now fully reduced; push its survivors out.
    for node, parent in order:
        if parent is None:
            continue
        if charge is not None:
            charge(len(tables[node]) + len(tables[parent]) + 1)
        reduced = semijoin_tables(tables[node], tables[parent])
        semijoins += 1
        tables[node] = reduced
        if not len(reduced):
            if counting:
                _SEMIJOINS.inc(semijoins)
            return False
    if counting:
        _SEMIJOINS.inc(semijoins)
    return True
