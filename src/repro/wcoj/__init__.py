"""Worst-case optimal join engine (Generic Join / leapfrog-style).

The rest of the library evaluates strategies as *binary* join trees --
exactly the space that Ngo, Porat, Ré, and Rudra prove asymptotically
suboptimal on cyclic queries: on a triangle, every binary plan can pay a
``Θ(N²)`` intermediate while the output is only ``O(N^{3/2})`` (the AGM
fractional-edge-cover bound).  This subpackage is the kernel that runs
a cyclic component wherever the per-component decision, or a
``"wcoj"``/``"yannakakis"`` pin, picks Generic Join:

* :mod:`trie` -- per-relation nested-dict tries over the columnar
  tables' interned id columns, built in the chosen attribute order;
  *weighted* tries count the rows behind each key instead;
* :mod:`order` -- the greedy frequency/adjacency heuristic that picks
  the global attribute expansion order;
* :mod:`agm` -- the AGM bound itself: the fractional edge cover LP,
  solved exactly by a small primal simplex on its dual (no external
  solver), surfaced in ``explain`` next to the binary plan's cost;
* :mod:`join` -- the Generic-Join kernel: breadth-first
  attribute-at-a-time expansion over a frontier held column by column,
  each level a few batch passes in C per slice of rows: intersecting
  the participating relations' candidate sets smallest-first, gathering
  the survivors' columns, charging the ambient
  :class:`~repro.runtime.Runtime` and emitting ``wcoj.*`` counters and
  one span per attribute level.  One expansion loop has two entry
  points: :func:`generic_join` materializes the join, and
  :func:`generic_count` counts it over weighted tries, expanding only
  the attributes two or more relations share.

The kernel handles *connected, cyclic* subsets of three or more
relations; everything else (acyclic subsets, binary steps, Cartesian
components) stays on the vector kernel, which is already optimal there.
:class:`~repro.database.Database` materializes with :func:`generic_join`
(``join_of``, and ``tau_of`` of the whole database) and counts every
proper cyclic subset's ``tau`` with :func:`generic_count`.  Results are
byte-identical to the vector engine by construction: both produce
duplicate-free process-interned id tuples over the sorted attribute
order, born as columns (lists here, tuples there), and either builds
its rows only when asked (see tests/wcoj/test_generic_join.py).
"""

from repro.wcoj.agm import FractionalEdgeCover, fractional_edge_cover
from repro.wcoj.join import generic_count, generic_join
from repro.wcoj.order import choose_order
from repro.wcoj.trie import build_trie

__all__ = [
    "FractionalEdgeCover",
    "build_trie",
    "choose_order",
    "fractional_edge_cover",
    "generic_count",
    "generic_join",
]
