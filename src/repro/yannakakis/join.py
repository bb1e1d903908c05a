"""The Yannakakis entry points: count, or reduce and join bottom-up.

Both take a connected alpha-acyclic subset's tables and share one tree
set-up: a join tree over the tables' positions, rooted at position 0.
A caller that holds the tree passes it as ``tree=`` (edges between
table positions, as :meth:`~repro.schemegraph.index.SubsetIndex.join_tree`
returns them); otherwise the set-up sorts the tables by scheme and
builds the tree with the same index code, one Kruskal pass that also
decides acyclicity.

* :func:`yannakakis_join` is the acyclic analogue of
  :func:`repro.wcoj.join.generic_join`: it collapses safe subjoins, runs
  the full reducer, and joins along the tree.  The output is a
  :class:`~repro.relational.columnar.ColumnarTable` over the *sorted*
  union order with the exact same id rows the vector kernel's binary
  pipeline produces -- byte identity is the contract every test holds
  it to.
* :func:`yannakakis_count` is the analogue of
  :func:`repro.wcoj.join.generic_count`: the reducer's bottom-up sweep
  with weights, which counts the join without building it.

Runtime integration: the join pipeline charges the supplied
:class:`~repro.runtime.Runtime` (or the ambient one) once per
``_CHARGE_CHUNK`` rows of semijoin/join work and raises
:class:`YannakakisExhausted` on a deadline/budget trigger;
:class:`~repro.database.Database` catches it and falls back to the
binary pipeline with degradation provenance.

Telemetry: ``yannakakis.joins`` / ``yannakakis.semijoins`` /
``yannakakis.subjoins`` / ``yannakakis.output_tuples`` count the
join pipeline's work; ``yannakakis.fallback`` counts abandoned runs
(bumped by the caller that falls back).  Counting charges no runtime
and moves no counter.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from operator import mul
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import AcyclicityError
from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.relational.attributes import AttributeSet
from repro.relational.columnar import ColumnarTable, _keys_of, join_tables
from repro.schemegraph.index import SubsetIndex, TreeEdges
from repro.yannakakis.reducer import bfs_order, full_reduce
from repro.yannakakis.subjoin import collapse_safe_edges

__all__ = [
    "YannakakisExhausted",
    "record_fallback",
    "yannakakis_count",
    "yannakakis_join",
]

_TRACER = get_tracer()
_METRICS = get_registry()
_YK_JOINS = _METRICS.counter(
    "yannakakis.joins", "semijoin-reduction pipelines executed"
)
_YK_OUTPUT = _METRICS.counter(
    "yannakakis.output_tuples", "tuples produced by the acyclic pipeline"
)
_YK_FALLBACKS = _METRICS.counter(
    "yannakakis.fallback", "acyclic pipelines abandoned to the binary kernel"
)

#: Rows of semijoin/join work between two Runtime.charge calls (same
#: granularity as the wcoj kernel's frontier chunk).
_CHARGE_CHUNK = 512


class YannakakisExhausted(Exception):
    """Internal control flow: the pipeline hit its runtime limit.

    Carries the trigger (``"deadline"`` or ``"budget"``).  Deliberately
    *not* a :class:`~repro.errors.ReproError`: it must never escape to
    users -- :class:`~repro.database.Database` catches it and serves the
    binary-join fallback instead.
    """

    def __init__(self, trigger: str):
        super().__init__(trigger)
        self.trigger = trigger


def record_fallback(trigger: str) -> None:
    """Count one abandoned pipeline (called by the fallback site)."""
    if _METRICS.enabled:
        _YK_FALLBACKS.inc(trigger=trigger)


class _Charger:
    """Batches Runtime.charge calls over the pipeline's row work."""

    __slots__ = ("runtime", "pending")

    def __init__(self, runtime):
        self.runtime = runtime
        self.pending = 0

    def spend(self, units: int) -> None:
        if self.runtime is None:
            return
        self.pending += units
        if self.pending >= _CHARGE_CHUNK:
            self.flush()

    def flush(self) -> None:
        if self.runtime is None or self.pending == 0:
            return
        trigger = self.runtime.charge(self.pending)
        self.pending = 0
        if trigger is not None:
            raise YannakakisExhausted(trigger)


def _join_tree(
    tables: Sequence[ColumnarTable],
    tree: Optional[TreeEdges] = None,
) -> Tuple[Dict[int, ColumnarTable], Dict[int, Set[int]]]:
    """The join tree over ``tables``: node ids -> states, plus adjacency.

    With ``tree`` given, node ``i`` is ``tables[i]`` and the edges are
    taken as they are.  Without it, the tables are numbered in
    sorted-scheme order, so node 0 (the root of every sweep) and every
    scan over the ids are deterministic, and the tree comes from a
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
    states = dict(enumerate(tables))
    adjacency: Dict[int, Set[int]] = {i: set() for i in states}
    for a, b in tree:
        adjacency[a].add(b)
        adjacency[b].add(a)
    return states, adjacency


def yannakakis_join(
    tables: Sequence[ColumnarTable],
    runtime=None,
    tree: Optional[TreeEdges] = None,
) -> ColumnarTable:
    """The natural join of ``tables`` by semijoin reduction.

    The tables must form a connected alpha-acyclic scheme with distinct
    attribute orders (exactly what :class:`~repro.database.Database`
    routes here).  ``tree`` is a join tree of that scheme as edges
    between table positions, rooted at position 0; by default it is
    built from the tables.  The result is a :class:`ColumnarTable` over
    the sorted union order -- the same layout (and therefore the same
    bytes) the vector kernel produces for the same join.

    Raises :class:`YannakakisExhausted` when ``runtime`` trips
    mid-pipeline.
    """
    if not tables:
        raise ValueError("yannakakis_join needs at least one table")
    sorted_order = tuple(sorted(set().union(*(t.order for t in tables))))
    if _METRICS.enabled:
        _YK_JOINS.inc()
    if any(len(t) == 0 for t in tables):
        return ColumnarTable(sorted_order, frozenset())
    charger = _Charger(runtime)
    states, adjacency = _join_tree(tables, tree)

    with _TRACER.span("yannakakis.subjoin", nodes=len(states)) as span:
        collapsed = collapse_safe_edges(states, adjacency, charge=charger.spend)
        span.set_attribute("collapsed", collapsed)

    # A collapse merges into the smaller id, so node 0 survives it.
    root = 0
    order = bfs_order(adjacency, root)
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
        for node, parent in order:
            if parent is None:
                continue
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
    :func:`yannakakis_join`, and ``tree`` is the same optional join tree
    over their positions.  Without a tree, a cyclic or unconnected
    input raises :class:`~repro.errors.AcyclicityError` before any row
    is read.  Counting charges no runtime and moves no counter.
    """
    if not tables:
        raise ValueError("yannakakis_count needs at least one table")
    states, adjacency = _join_tree(tables, tree)
    if any(len(t) == 0 for t in tables):
        return 0
    # weights[node]: per-row weights aligned with the node's columns,
    # present once some child has multiplied in (a leaf has none: every
    # row weighs 1).
    weights: Dict[int, List[int]] = {}
    for node, parent in reversed(bfs_order(adjacency, 0)):
        if parent is None:
            break
        child, above = states[node], states[parent]
        shared = [attr for attr in child.order if attr in above.order]
        keys = _keys_of(child.columns(), shared)
        own = weights.pop(node, None)
        if own is None:
            message = Counter(keys)
        else:
            message = {}
            get = message.get
            for key, weight in zip(keys, own):
                if weight:
                    message[key] = get(key, 0) + weight
        looked = map(message.get, _keys_of(above.columns(), shared), repeat(0))
        prior = weights.get(parent)
        merged = list(looked) if prior is None else list(map(mul, prior, looked))
        if not any(merged):
            return 0
        weights[parent] = merged
    root = weights.get(0)
    return len(states[0]) if root is None else sum(root)
