"""The Yannakakis entry points: count, or reduce and join.

Both take a connected alpha-acyclic subset's tables, in sorted-scheme
order, and walk one join tree: ``(child, parent)`` pairs of relation
bits, rooted at the lowest relation and listed in BFS order, as
:meth:`~repro.schemegraph.index.SubsetIndex.join_tree` returns them.
The ``i``-th table is the tree's ``i``-th lowest bit.  A caller that
holds the tree passes it as ``tree=``; otherwise the set-up builds it
with a :class:`~repro.schemegraph.index.SubsetIndex` over the tables'
schemes, which also decides acyclicity.

* :func:`yannakakis_join` is the acyclic analogue of
  :func:`repro.wcoj.join.generic_join`: it runs the full reducer, then
  joins along the tree.  The output is a
  :class:`~repro.relational.columnar.ColumnarTable` over the *sorted*
  union order with the exact same id rows the vector kernel's binary
  pipeline produces -- byte identity is the contract every test holds
  it to.
* :func:`yannakakis_count` is the analogue of
  :func:`repro.wcoj.join.generic_count`: the reducer's bottom-up sweep
  with weights, which counts the join without building it.  A
  :class:`~repro.database.Database` runs the same sweep
  (:func:`_count_subset`) on its own tables by relation bit, with a
  memo that outlives the call.

Runtime integration: the join pipeline charges the supplied
:class:`~repro.runtime.Runtime` through a
:class:`~repro.runtime.core.Charger`, once per
:data:`~repro.runtime.core.CHARGE_CHUNK` rows of semijoin/join work,
and raises :class:`~repro.runtime.KernelExhausted` on a deadline/budget
trigger; :class:`~repro.database.Database` catches it and falls back to
the binary pipeline with degradation provenance.

Telemetry: ``yannakakis.joins`` / ``yannakakis.semijoins`` /
``yannakakis.output_tuples`` count the join pipeline's work;
``yannakakis.fallback`` counts abandoned runs (bumped by the caller
that falls back).  Counting charges no runtime and moves no counter.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import AcyclicityError
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.relational.attributes import AttributeSet
from repro.relational.columnar import ColumnarTable, _keys_of, join_tables
from repro.runtime.core import Charger
from repro.schemegraph.index import SubsetIndex, TreeEdges, bits_of
from repro.yannakakis.reducer import full_reduce

__all__ = ["yannakakis_count", "yannakakis_join"]

_TRACER = get_tracer()
_METRICS = get_registry()
_YK_JOINS = _METRICS.counter(
    "yannakakis.joins", "semijoin-reduction pipelines executed"
)
_YK_OUTPUT = _METRICS.counter(
    "yannakakis.output_tuples", "tuples produced by the acyclic pipeline"
)


#: The count memo of one database: a message by ``(child bit, parent
#: bit, mask of the child's subtree)``, a subset's root weights by its
#: mask (see :func:`_count_subset`).
CountMemo = Dict[Union[int, Tuple[int, int, int]], List[int]]


def _by_bit(
    tables: Sequence[ColumnarTable], tree: Optional[TreeEdges]
) -> Tuple[Dict[int, ColumnarTable], int, TreeEdges]:
    """The tables keyed by relation bit, the subset's mask, and its join
    tree.

    With ``tree`` given, the ``i``-th table is the tree's ``i``-th
    lowest bit.  Without it, the tables are numbered in sorted-scheme
    order, so the root of every sweep and every scan over the bits are
    deterministic, and the tree comes from a
    :class:`~repro.schemegraph.index.SubsetIndex` over their schemes;
    :class:`~repro.errors.AcyclicityError` is raised when they do not
    form a connected alpha-acyclic scheme.
    """
    if tree is None:
        index = SubsetIndex(AttributeSet(t.order) for t in tables)
        tree = index.join_tree(index.full)
        if tree is None:
            raise AcyclicityError(
                "the tables do not form a connected alpha-acyclic scheme"
            )
        by_scheme = {AttributeSet(t.order): t for t in tables}
        tables = [by_scheme[s] for s in index.schemes]
    mask = tree[0][1] if tree else 1
    for child, _ in tree:
        mask |= child
    return dict(zip(bits_of(mask), tables)), mask, tree


def yannakakis_join(
    tables: Sequence[ColumnarTable],
    runtime=None,
    tree: Optional[TreeEdges] = None,
) -> ColumnarTable:
    """The natural join of ``tables`` by semijoin reduction.

    The tables must form a connected alpha-acyclic scheme with distinct
    attribute orders (exactly what :class:`~repro.database.Database`
    routes here).  ``tree`` is a join tree of that scheme as
    :meth:`~repro.schemegraph.index.SubsetIndex.join_tree` returns it:
    ``(child, parent)`` edges between table positions, rooted at
    position 0, in BFS order; by default it is built from the tables.
    The result is a :class:`ColumnarTable` over the sorted union order
    -- the same layout (and therefore the same bytes) the vector kernel
    produces for the same join.

    Raises :class:`~repro.runtime.KernelExhausted` when ``runtime``
    trips mid-pipeline.
    """
    if not tables:
        raise ValueError("yannakakis_join needs at least one table")
    sorted_order = tuple(sorted(set().union(*(t.order for t in tables))))
    if _METRICS.enabled:
        _YK_JOINS.inc()
    if any(len(t) == 0 for t in tables):
        return ColumnarTable(sorted_order, frozenset())
    charger = Charger(runtime)
    states, mask, tree = _by_bit(tables, tree)
    root = mask & -mask
    order = [(root, None), *tree]
    with _TRACER.span("yannakakis.reduce", nodes=len(states)) as span:
        nonempty = full_reduce(states, order, charge=charger.spend)
        span.set_attribute("nonempty", nonempty)
    if not nonempty:
        charger.flush()
        return ColumnarTable(sorted_order, frozenset())

    with _TRACER.span("yannakakis.join", nodes=len(states)) as span:
        result = states[root]
        # BFS order keeps every joined node adjacent to the part already
        # joined, so no step is a Cartesian product; full reduction
        # bounds every intermediate by input + output.
        for node, _ in order[1:]:
            result = join_tables(result, states[node])
            charger.spend(len(result) + 1)
        span.set_attribute("output", len(result))
    charger.flush()
    if _METRICS.enabled:
        _YK_OUTPUT.inc(len(result))
    if result.order != sorted_order:  # pragma: no cover - kernel emits sorted
        raise AssertionError("yannakakis output order must be the sorted union")
    return result


def yannakakis_count(
    tables: Sequence[ColumnarTable], tree: Optional[TreeEdges] = None
) -> int:
    """``tau`` of the natural join of ``tables``, nothing materialized.

    The bottom-up sweep of :func:`~repro.yannakakis.reducer.full_reduce`
    with weights.  Every row starts with weight 1 (it stands for
    itself).  Leaf to root, a node sends its parent the summed weight of
    its rows per key over the attributes they share, and each parent row
    multiplies its weight by the sum for its own key -- 0 when there is
    none, which is the semijoin.  By the running intersection property,
    rows that agree along tree edges agree globally, so a root row's
    final weight is the number of join tuples extending it, and the
    count is their sum.  Weights are Python ints, so the count is exact
    at any size.

    The sweep runs column-at-a-time: keys come from one bulk
    ``_keys_of`` per side (shared attributes in sorted order on both),
    a leaf's message is a ``Counter`` of its keys, and a parent looks
    every key up in one ``map``.  The one Python loop left is an inner
    node's weighted group-by, which skips rows of weight 0.

    The tables must form a connected alpha-acyclic scheme, as for
    :func:`yannakakis_join`, and ``tree`` is the same optional join
    tree.  Without a tree, a cyclic or unconnected input raises
    :class:`~repro.errors.AcyclicityError` before any row is read.
    Counting charges no runtime and moves no counter.
    """
    if not tables:
        raise ValueError("yannakakis_count needs at least one table")
    states, mask, tree = _by_bit(tables, tree)
    return _count_subset(states, tree, mask, {})


def _count_subset(
    tables: Dict[int, ColumnarTable], tree: TreeEdges, mask: int, memo: CountMemo
) -> int:
    """:func:`yannakakis_count`'s sweep of the subset ``mask`` along
    ``tree``, over ``tables`` by relation bit, reading what ``memo``
    holds and filing what it computes there.  A
    :class:`~repro.database.Database` passes its own tables and memo.

    A message is keyed by (child bit, parent bit, mask of the child's
    subtree) and is a vector aligned with the parent's rows: for each,
    how many tuples of the subtree's join agree with it on the
    attributes the child shares with the parent.  The subtree below a
    child is a join tree of its own relations (the running intersection
    property holds on any connected part of a join tree), so the key
    fixes the message whatever tree the rest of the subset has, and
    subsets that share a subtree count it once.

    A subset's root weights (its lowest relation's rows, each weighted
    by the join tuples extending it) are filed under its mask.  They
    too are a property of the subset's join, not of its tree.  When the
    root has two or more children, the subset without the last child's
    subtree is a connected part holding the root, and by the running
    intersection property the root's weights are that part's times the
    last child's message: with both in the memo, the count is one
    product and a sum.
    """
    root = mask & -mask
    # below[node]: the mask of an inner node's subtree (a leaf's is its bit).
    below: Dict[int, int] = {}
    for child, parent in reversed(tree):
        below[parent] = below.get(parent, parent) | below.get(child, child)
    # weights[node]: per-row weights aligned with the node's columns,
    # present once some child has multiplied in (a leaf has none: every
    # row weighs 1).  Nothing here is mutated once built: a memoized
    # vector may serve as a node's weights as it is.
    weights: Dict[int, List[int]] = {}
    # The root's children lead the listing.
    edges = tree
    last = 0
    for _, parent in tree:
        if parent != root:
            break
        last += 1
    if last > 1:
        child = tree[last - 1][0]
        prior = memo.get(mask ^ below.get(child, child))
        if prior is not None:
            # Only the last child's subtree is left to multiply in.
            edges = tree[last - 1 :]
            weights[root] = prior
    # Top-down: a node weighs its rows iff its parent does and the memo
    # lacks its message.  The root always does.
    weighing = root
    known: Dict[int, List[int]] = {}
    for child, parent in edges:
        if parent & weighing:
            sent = memo.get((child, parent, below.get(child, child)))
            if sent is None:
                weighing |= child
            else:
                known[child] = sent
    for child, parent in reversed(edges):
        if not parent & weighing:
            continue
        sent = known.get(child)
        if sent is None:
            lower, above = tables[child], tables[parent]
            shared = [attr for attr in lower.order if attr in above.order]
            keys = _keys_of(lower.columns(), shared)
            own = weights.pop(child, None)
            if own is None:
                summed = Counter(keys)
            else:
                summed = {}
                get = summed.get
                for key, weight in zip(keys, own):
                    if weight:
                        summed[key] = get(key, 0) + weight
            sent = list(map(summed.get, _keys_of(above.columns(), shared), repeat(0)))
            memo[child, parent, below.get(child, child)] = sent
        prior = weights.get(parent)
        merged = sent if prior is None else list(map(mul, prior, sent))
        if not any(merged):
            return 0
        weights[parent] = merged
    root_weights = weights.get(root)
    if root_weights is None:
        return len(tables[root])
    memo[mask] = root_weights
    return sum(root_weights)
