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
presentation) keeps the inner loop batch-like -- one Python-level pass
per attribute, with dict probes doing the per-value work -- and gives
the run ledger a natural phase structure: one ``wcoj.attr`` span per
level, with the frontier sizes on its attributes.

Runtime integration: the expansion charges the supplied
:class:`~repro.runtime.Runtime` through a
:class:`~repro.runtime.core.Charger`, once per
:data:`~repro.runtime.core.CHARGE_CHUNK` units of work, and raises
:class:`~repro.runtime.KernelExhausted` on a deadline/budget trigger;
:class:`~repro.database.Database` catches it and falls back to the
binary pipeline with degradation provenance.

Telemetry: ``wcoj.joins`` (labelled ``mode="join"`` or ``"count"``) /
``wcoj.intersections`` / ``wcoj.candidates`` / ``wcoj.output_tuples``
count the kernel's work -- on a count run the output is the counted
tau; ``wcoj.fallback`` counts abandoned runs (bumped by the caller that
falls back).
"""

from __future__ import annotations

from math import prod
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.metrics import get_registry
from repro.obs.trace import get_tracer
from repro.relational.attributes import AttributeSet
from repro.relational.columnar import ColumnarTable
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
    over the *sorted* attribute order, born as a row list: the bindings
    are duplicate-free by construction (a row forks once per distinct
    candidate), so no row set is hashed until one is asked for.  Its
    rows are the same id tuples (and therefore the same bytes) the
    vector kernel produces for the same join.

    Raises :class:`~repro.runtime.KernelExhausted` when ``runtime``
    trips mid-expansion.
    """
    attr_sets, pi, sorted_order = _schemes_and_order(tables, order)
    if _METRICS.enabled:
        _WCOJ_JOINS.inc(mode="join")
    if any(len(t) == 0 for t in tables):
        return ColumnarTable.from_rowlist(sorted_order, [])
    frontier = _expand(tables, attr_sets, pi, runtime, count=False)
    if frontier and pi != sorted_order:
        # Permute the pi-ordered bindings into the canonical sorted
        # layout.  pi is a permutation of two or more attributes here,
        # so the getter returns tuples.
        pick = itemgetter(*map(pi.index, sorted_order))
        frontier = list(map(pick, frontier))
    return ColumnarTable.from_rowlist(sorted_order, frontier)


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
) -> Union[List[Tuple[int, ...]], int]:
    """The expansion loop behind both entry points: the bindings along
    ``levels`` (materializing), or the join's tuple count (``count``).

    Frontier row ``i`` is ``tags[i]`` -- its binding so far, or when
    counting, the product of the leaf weights it has reached -- plus
    ``open_nodes[r][i]`` for every relation ``r`` with attributes both
    bound and unbound.  A relation not yet reached sits at its root, and
    one whose attributes are all bound is never read again, so neither
    is carried row by row.
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
    if count:
        # A relation sharing no attribute is a weight from the start.
        tags: list = [prod(t for t, at in zip(tries, finish) if at < 0)]
    else:
        tags = [()]
    open_nodes: Dict[int, list] = {}
    tracing = _TRACER.enabled
    metering = _METRICS.enabled
    last = len(levels) - 1
    for level, attr in enumerate(levels):
        width = len(tags)
        active = (
            _TRACER.span("wcoj.attr", attribute=attr, level=level, frontier=width)
            if tracing
            else None
        )
        span = active.__enter__() if active is not None else None
        try:
            final = level == last
            # Participants whose last attribute this is come first: their
            # children are leaves.  The others descend into open_nodes.
            participants = sorted(
                (r for r, attrs in enumerate(attr_sets) if attr in attrs),
                key=lambda r: finish[r] != level,
            )
            leaves = sum(1 for r in participants if finish[r] == level)
            columns = [
                open_nodes.pop(r) if r in open_nodes else [tries[r]] * width
                for r in participants
            ]
            carried_from = list(open_nodes.values())
            # A row is (tag, participant nodes..., carried open nodes...);
            # these are the row positions each loop below reads.
            n_part = len(participants)
            more = range(3, 1 + n_part)  # participants past the second
            weigh = range(1, 1 + leaves)  # participants reaching a leaf
            outputs: Dict[int, list] = {
                r: [] for r in [*open_nodes, *participants[leaves:]]
            }
            carried = [(1 + n_part + k, outputs[r]) for k, r in enumerate(open_nodes)]
            descents = [
                (1 + k, outputs[participants[k]]) for k in range(leaves, n_part)
            ]
            open_nodes = outputs
            new_tags: list = []
            probed = 0
            units = 0
            for row in zip(tags, *columns, *carried_from):
                # Key-view intersection iterates the smaller node and
                # probes the larger, in C.
                if n_part == 2:
                    candidates = row[1].keys() & row[2].keys()
                elif n_part == 1:
                    candidates = row[1]
                else:
                    candidates = row[1].keys() & row[2].keys()
                    for k in more:
                        candidates &= row[k].keys()
                if metering:
                    probed += min(map(len, row[1 : 1 + n_part]))
                units += 1 + len(candidates)
                if units >= CHARGE_CHUNK:
                    charger.spend(units)
                    units = 0
                if not candidates:
                    continue
                tag = row[0]
                if count:
                    for v in candidates:
                        weight = tag
                        for k in weigh:
                            weight *= row[k][v]
                        new_tags.append(weight)
                else:
                    for v in candidates:
                        new_tags.append(tag + (v,))
                if final:
                    continue
                for k, out in descents:
                    node = row[k]
                    for v in candidates:
                        out.append(node[v])
                for k, out in carried:
                    node = row[k]
                    for _ in candidates:
                        out.append(node)
            charger.spend(units)
            if metering:
                _WCOJ_INTERSECTIONS.inc(width, attribute=attr)
                _WCOJ_CANDIDATES.inc(probed, attribute=attr)
            tags = new_tags
            if span is not None:
                span.set_attribute("expanded", len(tags))
            if not tags:
                break
        finally:
            if active is not None:
                active.__exit__(None, None, None)
    charger.flush()
    if count:
        total = sum(tags)
        if metering:
            _WCOJ_OUTPUT.inc(total)
        return total
    if metering:
        _WCOJ_OUTPUT.inc(len(tags))
    return tags
