"""Safe subjoins: tree edges whose join provably cannot blow up.

A *subjoin* is the join of two adjacent join-tree nodes.  Taking one
eagerly replaces two nodes with their join (an edge contraction, which
preserves the running-intersection property), so the reducer sweeps a
smaller tree -- but an arbitrary subjoin can square the data.  Following
Afrati's "Safe Subjoins in Acyclic Joins", an edge is collapsed only
when a state-level criterion bounds the subjoin by one input:

* **scheme containment** -- one node's scheme is contained in the
  other's.  The join is then a semijoin of the wider node, so its size
  is at most the wider state's.
* **key projection** -- the shared attributes are duplicate-free in one
  state (they form a key of that state *as it currently stands*).  Every
  row of the other state then matches at most one row, so the subjoin
  has at most the other state's cardinality.

Both checks are O(rows) on interned columns -- a projection dedup --
and both are decided on the *states*, not the schemes: a key that holds
in today's data licenses today's subjoin, which is all the executor
needs.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.obs.metrics import get_registry
from repro.relational.columnar import ColumnarTable, join_tables, project_table

__all__ = ["safe_subjoin_reason", "collapse_safe_edges"]

_METRICS = get_registry()
_SUBJOINS = _METRICS.counter(
    "yannakakis.subjoins", "safe subjoins collapsed before reduction"
)


def _keys_state(table: ColumnarTable, shared: Tuple[str, ...]) -> bool:
    """True when ``shared`` is duplicate-free in ``table`` (a key of the
    current state)."""
    return len(project_table(table, shared)) == len(table)


def safe_subjoin_reason(
    left: ColumnarTable, right: ColumnarTable
) -> Optional[str]:
    """Why joining ``left`` and ``right`` is safe, or ``None``.

    Safe means ``|left ⋈ right| <= max(|left|, |right|)`` is guaranteed
    by the criterion (containment or a duplicate-free key projection).
    Disjoint schemes are never safe: that join is a Cartesian product.
    """
    left_attrs, right_attrs = set(left.order), set(right.order)
    shared = tuple(a for a in left.order if a in right_attrs)
    if not shared:
        return None
    if left_attrs <= right_attrs or right_attrs <= left_attrs:
        return "scheme containment"
    if _keys_state(left, shared):
        return "shared attributes key the left state"
    if _keys_state(right, shared):
        return "shared attributes key the right state"
    return None


def collapse_safe_edges(
    tables: Dict[int, ColumnarTable],
    adjacency: Dict[int, Set[int]],
    charge=None,
) -> int:
    """Contract every safe edge of the working tree, in place.

    ``tables`` maps node ids to their current states and ``adjacency``
    is the join tree over those ids; both are mutated.  Contraction
    merges the child into the parent id (the smaller id survives, so the
    sweep is deterministic), re-pointing the child's other neighbors.
    Newly merged nodes are re-examined until no safe edge remains --
    a merge can expose new containments.  Returns the number of edges
    collapsed; ``charge`` (rows -> None) is invoked with each subjoin's
    output size so the runtime can meter the work.
    """
    collapsed = 0
    counting = _METRICS.enabled
    changed = True
    while changed:
        changed = False
        for node in sorted(adjacency):
            if node not in adjacency:
                continue
            for other in sorted(adjacency[node]):
                if other <= node:
                    continue
                reason = safe_subjoin_reason(tables[node], tables[other])
                if reason is None:
                    continue
                merged = join_tables(tables[node], tables[other])
                if charge is not None:
                    charge(len(merged) + 1)
                tables[node] = merged
                del tables[other]
                neighbors = adjacency.pop(other)
                neighbors.discard(node)
                adjacency[node].discard(other)
                for moved in neighbors:
                    adjacency[moved].discard(other)
                    adjacency[moved].add(node)
                    adjacency[node].add(moved)
                collapsed += 1
                if counting:
                    _SUBJOINS.inc(reason=reason)
                changed = True
                break
            if changed:
                break
    return collapsed
