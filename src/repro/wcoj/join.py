"""The Generic-Join kernel: breadth-first attribute-at-a-time expansion.

One attribute per level, in the order :mod:`repro.wcoj.order` picks.
The *frontier* is the set of partial bindings over the bound prefix;
alongside it, every relation with attributes both bound and unbound
keeps one trie node per frontier row -- the subtrie consistent with
that binding.  (A relation not yet reached is at its root for every
row, and one whose attributes are all bound is never read again.)  At
each level the relations whose schemes contain the attribute
*participate*: the candidate values for a frontier row are the keys
its participants' current nodes agree on -- a dict key-view
intersection, which iterates the smallest node's keys and probes the
others in C (the leapfrog intersection, dict-shaped).  Rows whose
intersection is empty die; surviving rows fork once per candidate and
the participants' nodes descend.

One expansion loop serves two entry points:

* :func:`generic_join` materializes the join.  Every attribute is a
  level, the frontier carries the bindings, and the final level only
  emits them: nothing reads a node below it, so no node descends there.
* :func:`generic_count` counts it.  Only attributes that at least two
  relations carry are levels, and each relation's trie is *weighted*
  (:func:`~repro.wcoj.trie.build_trie`): its leaves hold how many rows
  stand behind each key.  Given a binding of the shared attributes,
  each relation's private completions are independent of the others',
  so the join tuples extending it number the product of the leaf
  weights -- which the final level adds up instead of emitting
  bindings.  A triangle inside a 4-clique expands 3 attributes instead
  of 6 and never builds its output.

This breadth-first shape (rather than the recursive depth-first
presentation) lets a level run as a few batch passes in C: the
frontier is held column by column -- one list per bound attribute (or
the weights, when counting) and one per open relation's nodes -- and
each level walks it in slices of at most
:data:`~repro.runtime.core.CHARGE_CHUNK` rows.  A slice intersects its
participants' node columns with one ``map`` per participant, takes the
fan-outs, builds one position getter from them, and gathers every
column through it; nodes descend, and leaves are weighed, by one
``map(dict.__getitem__, ...)`` over the flattened candidates.  No
Python-level loop runs per row.  The level structure also gives the
run ledger its phases: one ``wcoj.attr`` span per level, with the
frontier sizes on its attributes.

Runtime integration: each slice charges the supplied
:class:`~repro.runtime.Runtime` its rows plus its candidates through a
:class:`~repro.runtime.core.Charger`, and every level ends with a
flush, so at most ``CHARGE_CHUNK`` frontier rows pass between two
charges.  A deadline/budget trigger raises
:class:`~repro.runtime.KernelExhausted`;
:class:`~repro.database.Database` catches it and falls back to the
binary pipeline with degradation provenance.

Telemetry: ``wcoj.joins`` (labelled ``mode="join"`` or ``"count"``) /
``wcoj.intersections`` / ``wcoj.candidates`` / ``wcoj.output_tuples``
count the kernel's work -- the per-attribute intersection and
candidate counts land slice by slice, and on a count run the output is
the counted tau; ``wcoj.fallback`` counts abandoned runs (bumped by the
caller that falls back).
"""

from __future__ import annotations

from itertools import chain
from math import prod
from operator import and_, mul
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.relational.attributes import AttributeSet
from repro.relational.columnar import ColumnarTable, _picker
from repro.runtime.core import CHARGE_CHUNK, Charger
from repro.wcoj.order import choose_order
from repro.wcoj.trie import build_trie

__all__ = ["generic_count", "generic_join"]

_TRACER = get_tracer()
_METRICS = get_registry()
_WCOJ_JOINS = _METRICS.counter("wcoj.joins", "generic (worst-case optimal) joins executed")
_WCOJ_INTERSECTIONS = _METRICS.counter(
    "wcoj.intersections", "candidate-set intersections by the generic join"
)
_WCOJ_CANDIDATES = _METRICS.counter(
    "wcoj.candidates", "candidate values probed during intersections"
)
_WCOJ_OUTPUT = _METRICS.counter(
    "wcoj.output_tuples", "tuples produced (or counted) by generic joins"
)
def _schemes_and_order(
    tables: Sequence[ColumnarTable], order: Optional[Tuple[str, ...]]
) -> Tuple[List[frozenset], Tuple[str, ...], Tuple[str, ...]]:
    """The tables' schemes, the expansion order, and the sorted output
    order; validates an explicit ``order``."""
    if not tables:
        raise ValueError("a generic join needs at least one table")
    schemes = [AttributeSet(t.order) for t in tables]
    pi = choose_order(schemes) if order is None else tuple(order)
    sorted_order = tuple(sorted(set().union(*schemes)))
    if sorted(pi) != list(sorted_order):
        raise ValueError(
            f"expansion order {pi!r} must cover attributes {sorted_order!r}"
        )
    return [frozenset(s) for s in schemes], pi, sorted_order


def generic_join(
    tables: Sequence[ColumnarTable],
    order: Optional[Tuple[str, ...]] = None,
    runtime=None,
) -> ColumnarTable:
    """The natural join of ``tables`` by Generic-Join expansion.

    ``order`` overrides the expansion order (it must cover every
    attribute exactly once); by default :func:`~repro.wcoj.order
    .choose_order` picks it.  The result is a :class:`ColumnarTable`
    over the *sorted* attribute order, born as the columns the
    expansion built, one list per attribute: the bindings are
    duplicate-free by construction (a row forks once per distinct
    candidate), so no row tuple and no row set exists until one is
    asked for.  Its rows are the same id tuples (and therefore the same
    bytes) the vector kernel produces for the same join.

    Raises :class:`~repro.runtime.KernelExhausted` when ``runtime``
    trips mid-expansion.
    """
    attr_sets, pi, sorted_order = _schemes_and_order(tables, order)
    if _METRICS.enabled:
        _WCOJ_JOINS.inc(mode="join")
    columns: Dict[str, list] = {}
    if all(len(t) for t in tables):
        columns = _expand(tables, attr_sets, pi, runtime, count=False)
    if len(columns) < len(pi):
        # An empty input, or a frontier that died before the last level.
        columns = dict.fromkeys(pi, ())
    return ColumnarTable.from_columns(sorted_order, columns, len(columns[pi[-1]]))


def generic_count(
    tables: Sequence[ColumnarTable],
    order: Optional[Tuple[str, ...]] = None,
    runtime=None,
) -> int:
    """``tau``: the number of tuples in the natural join of ``tables``,
    counted without materializing the join.

    Expands only the attributes at least two tables carry, in the
    expansion order (``order`` as for :func:`generic_join`, restricted
    to those attributes), over weighted tries; see the module docstring
    for why the product of the leaf weights is exact.  Raises
    :class:`~repro.runtime.KernelExhausted` like :func:`generic_join`.
    """
    attr_sets, pi, _ = _schemes_and_order(tables, order)
    if _METRICS.enabled:
        _WCOJ_JOINS.inc(mode="count")
    if any(len(t) == 0 for t in tables):
        return 0
    seen: set = set()
    shared: set = set()
    for attrs in attr_sets:
        shared |= seen & attrs
        seen |= attrs
    levels = tuple(attr for attr in pi if attr in shared)
    return _expand(tables, attr_sets, levels, runtime, count=True)


def _expand(
    tables: Sequence[ColumnarTable],
    attr_sets: List[frozenset],
    levels: Tuple[str, ...],
    runtime,
    count: bool,
) -> Union[Dict[str, list], int]:
    """The expansion loop behind both entry points: the id columns of
    the bindings along ``levels`` (materializing; a frontier that dies
    early leaves the later attributes out), or the join's tuple count
    (``count``).

    The frontier is held column by column: ``bound[attr]`` for every
    bound attribute when materializing, or ``weights`` -- the product
    of the leaf weights each row has reached -- when counting, plus
    ``open_nodes[r]`` for every relation ``r`` with attributes both
    bound and unbound.  A relation not yet reached sits at its root,
    and one whose attributes are all bound is never read again, so
    neither is carried row by row.
    """
    charger = Charger(runtime)
    depth = {attr: level for level, attr in enumerate(levels)}
    tries = []
    finish: List[int] = []  # the level binding each relation's last attribute
    for table, attrs in zip(tables, attr_sets):
        path = tuple(attr for attr in levels if attr in attrs)
        charger.spend(len(table))
        tries.append(build_trie(table, path, weighted=count))
        finish.append(depth[path[-1]] if path else -1)
    bound: Dict[str, list] = {}
    # A relation sharing no attribute is a weight from the start.
    weights = [prod(t for t, at in zip(tries, finish) if at < 0)]
    width = 1
    open_nodes: Dict[int, list] = {}
    tracing = _TRACER.enabled
    metering = _METRICS.enabled
    for level, attr in enumerate(levels):
        active = (
            _TRACER.span("wcoj.attr", attribute=attr, level=level, frontier=width)
            if tracing
            else None
        )
        span = active.__enter__() if active is not None else None
        try:
            # Participants whose last attribute this is come first: their
            # children are leaves.  The others descend into open_nodes.
            participants = sorted(
                (r for r, attrs in enumerate(attr_sets) if attr in attrs),
                key=lambda r: finish[r] != level,
            )
            leaves = sum(1 for r in participants if finish[r] == level)
            nodes = [
                open_nodes.pop(r) if r in open_nodes else [tries[r]] * width
                for r in participants
            ]
            # Every column a slice only gathers, paired with its output.
            carried_from = [*bound.values(), *open_nodes.values()]
            bound = {a: [] for a in bound}
            open_nodes = {r: [] for r in open_nodes}
            carried = list(
                zip(carried_from, [*bound.values(), *open_nodes.values()])
            )
            # The descending participants' node columns, and the column
            # this level emits (its ids, or the new weights).
            descents = [
                (col, open_nodes.setdefault(r, []))
                for r, col in zip(participants[leaves:], nodes[leaves:])
            ]
            emitted: list = [] if count else bound.setdefault(attr, [])
            for lo in range(0, width, CHARGE_CHUNK):
                hi = lo + CHARGE_CHUNK
                heads = [col[lo:hi] for col in nodes]
                # Key-view intersections iterate the smaller node and
                # probe the larger, in C; a lone participant's node is
                # its own candidate set.
                cands = heads[0]
                if len(heads) > 1:
                    keys = [map(dict.keys, head) for head in heads]
                    cands = map(and_, keys[0], keys[1])
                    for more in keys[2:]:
                        cands = map(and_, cands, more)
                    cands = list(cands)
                fan = list(map(len, cands))
                size = sum(fan)
                if metering:
                    _WCOJ_INTERSECTIONS.inc(len(fan), attribute=attr)
                    _WCOJ_CANDIDATES.inc(
                        sum(map(min, *(map(len, head) for head in heads)))
                        if len(heads) > 1
                        else sum(map(len, heads[0])),
                        attribute=attr,
                    )
                charger.spend(len(fan) + size)
                if not size:
                    continue
                # Row lo + i forks fan[i] times: one getter gathers every
                # column of the slice's survivors.
                take = _picker(
                    chain.from_iterable(map(mul, zip(range(lo, hi)), fan)), size
                )
                flat = list(chain.from_iterable(cands))
                for col, out in carried:
                    out.extend(take(col))
                for col, out in descents:
                    out.extend(map(dict.__getitem__, take(col), flat))
                if count:
                    weighed = take(weights)
                    for col in nodes[:leaves]:
                        leaf = map(dict.__getitem__, take(col), flat)
                        weighed = map(mul, weighed, leaf)
                    emitted.extend(weighed)
                else:
                    emitted.extend(flat)
            charger.flush()
            if count:
                weights = emitted
            width = len(emitted)
            if span is not None:
                span.set_attribute("expanded", width)
            if not width:
                break
        finally:
            if active is not None:
                active.__exit__(None, None, None)
    charger.flush()
    if count:
        total = sum(weights)
        if metering:
            _WCOJ_OUTPUT.inc(total)
        return total
    if metering:
        _WCOJ_OUTPUT.inc(width)
    return bound
