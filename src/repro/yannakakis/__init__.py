"""The Yannakakis acyclic fast path: semijoin reduction over a join tree.

Section 5 of the paper ties condition C4 to acyclicity; this package
turns that connection into an executor.  Given the relation states of a
connected alpha-acyclic subset, :func:`yannakakis_join`:

1. takes the join tree :class:`~repro.database.Database` hands it as
   ``tree=`` (its subset index's), or builds one with the same
   :class:`~repro.schemegraph.index.SubsetIndex` code: a
   maximum-weight spanning tree by Kruskal, whose weight also decides
   acyclicity,
2. collapses tree edges licensed by the *safe subjoin* criterion
   (:mod:`repro.yannakakis.subjoin`) -- subjoins that provably cannot
   exceed an input's size are taken eagerly,
3. runs the *full reducer* (:mod:`repro.yannakakis.reducer`): a
   bottom-up then top-down semijoin sweep over the vector kernel's
   semijoin primitive, after which every surviving tuple extends to at
   least one full join tuple, and
4. joins bottom-up along the tree; by global consistency every
   intermediate is bounded by the final output size.

The result is byte-identical to the vector engine's binary pipeline
(same interned ids, same canonical sorted attribute order); what changes
is the worst case: on acyclic schemes with large pairwise intermediates
but small outputs the reducer pays O(input) semijoins instead of the
binary plan's blow-up (see benchmarks/bench_yannakakis.py).

:func:`yannakakis_count` shares step 1, ``tree=`` included, and counts
the join instead: the bottom-up sweep of step 3 with weights, run
column-at-a-time, where each node sends its parent the summed weight of
its rows per shared key and the root's weights sum to ``tau``.  It is the acyclic analogue of
:func:`~repro.wcoj.join.generic_count`, and
:class:`~repro.database.Database` counts every connected acyclic subset
of two or more relations with it, on every engine.

Runtime integration mirrors :mod:`repro.wcoj`: the join pipeline charges
the ambient :class:`~repro.runtime.Runtime` and raises
:class:`YannakakisExhausted` on a deadline/budget trigger;
:class:`~repro.database.Database` catches it and falls back to the
binary pipeline with degradation provenance.  Counting charges nothing.
"""

from repro.yannakakis.join import (
    YannakakisExhausted,
    record_fallback,
    yannakakis_count,
    yannakakis_join,
)
from repro.yannakakis.reducer import full_reduce
from repro.yannakakis.subjoin import collapse_safe_edges, safe_subjoin_reason

__all__ = [
    "YannakakisExhausted",
    "record_fallback",
    "yannakakis_count",
    "yannakakis_join",
    "full_reduce",
    "collapse_safe_edges",
    "safe_subjoin_reason",
]
