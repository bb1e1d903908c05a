"""The columnar join kernel: interned values, positional int tuples.

This is the internal execution substrate behind :class:`~repro.relational
.relation.Relation`.  The public API works with :class:`Row` value
objects -- immutable attribute->value mappings -- but building, hashing,
and merging those per intermediate tuple dominates the runtime of every
quantity the paper defines (``tau``, C1-C4, Theorems 1-3 all reduce to
evaluating many overlapping natural joins).  The kernel removes that cost:

* **Value interning** -- every attribute value is mapped once to a small
  integer id (:func:`intern_value`).  Two values receive the same id
  exactly when they have the same type and compare equal, tuples and
  frozensets element by element (:func:`typed_key`): ``True``, ``1``
  and ``1.0`` get three ids, so they do not join each other and each
  decodes as itself.  Ids are process-wide, never recycled, and
  allocation is guarded by a lock so concurrent threads cannot race an
  id.
* **Columnar tables** -- a :class:`ColumnarTable` is a relation state
  encoded as positional tuples of value ids over a fixed, sorted
  attribute order.  A table is born as one of two representations and
  derives the others lazily:

  - a ``frozenset`` of id tuples (canonical for set ops and equality),
  - position-aligned *columns* of ids (what every join kernel emits:
    the vector kernel, and so the Yannakakis join phase, as tuples,
    Generic Join as lists), so a chain of joins never transposes to
    rows.

  Join outputs are born as columns: they are provably duplicate-free,
  so the ordered row list and the row set are built lazily, only when
  someone actually reads rows or needs set semantics.  Because the
  attribute order is always the sorted scheme, two tables over the
  same scheme are positionally aligned and set operations are raw
  ``frozenset`` ops on id tuples.
* **Vector kernel operators** -- the one binary kernel:
  :func:`join_tables`, :func:`semijoin_tables`,
  :func:`antijoin_tables`, and :func:`project_table` batch-at-a-time
  over columns instead of row-at-a-time over tuples: composite join
  keys are built for a whole column block with one bulk ``zip`` (one C
  call, no per-row ``itemgetter``), the hash build maps each key to an
  array of build-side row indices, and the probe is a single pass that
  emits output *columns*, each gathered by one ``itemgetter`` call --
  no per-pair tuple concatenation, no intermediate ``set``.  Dedup is
  paid only where set semantics require it (projection); join outputs
  are duplicate-free by construction because an output row restricted
  to either input scheme recovers the input row that produced it.
  Per-row ``struct.pack`` byte keys were measured slower than bulk-zip
  tuple keys in pure Python (packing cannot be bulk-vectorized without
  first building the very tuples it would replace), so tuple keys are
  the packed-key representation of choice.

Every :class:`~repro.database.Database` runs its binary joins here,
whatever engine it carries (``Database(engine=...)``; the multiway
kernels in :mod:`repro.wcoj` and :mod:`repro.yannakakis` handle only
connected subsets of three or more relations).  The reference these
operators are tested against is the nested-loop oracle in
``tests/oracle.py``, which never touches the interner.

Telemetry (docs/observability.md): kernel joins emit the ``join.*``
counters.  ``join.probes`` counts hash-table lookups (one per probe-side
row); ``join.comparisons`` counts the candidate row pairs examined after
a bucket hit -- in a natural join the bucket key is the entire shared
scheme, so every candidate pair merges and ``comparisons`` equals the
merged pair count pre-dedup.
"""

from __future__ import annotations

import threading
from functools import partial
from itertools import chain, compress, count, repeat
from operator import is_not, itemgetter, mul, not_
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import RelationError
from repro.obs.metrics import get_registry

__all__ = [
    "ColumnarTable",
    "IdRow",
    "intern_value",
    "lookup_value",
    "typed_key",
    "value_of",
    "interned_count",
    "decode_row",
    "join_tables",
    "semijoin_tables",
    "antijoin_tables",
    "project_table",
]

#: A tuple of interned value ids, positionally aligned with a table order.
IdRow = Tuple[int, ...]

# Join-engine telemetry (docs/observability.md).  The registry is disabled
# by default; each kernel join pays one flag check.
_METRICS = get_registry()
_JOINS = _METRICS.counter("join.executed", "natural joins evaluated")
_PROBES = _METRICS.counter(
    "join.probes", "hash-table lookups by the join kernel (one per probe row)"
)
_COMPARISONS = _METRICS.counter(
    "join.comparisons", "row pairs merged after a bucket hit (pre-dedup)"
)
_OUTPUT_TUPLES = _METRICS.counter("join.output_tuples", "tuples produced by joins")


# -- value interning -----------------------------------------------------------

#: Scalars under the first type seen among values equal to them: the hit
#: path of :func:`intern_value`, one lookup and a type check.
_IDS: Dict[Hashable, int] = {}
#: Every other value under its :func:`typed_key`: tuples, frozensets, and
#: scalars equal to an earlier one of another type (``1.0`` after ``1``).
_TYPED: Dict[Hashable, int] = {}
_VALUES: List[Hashable] = []
#: Guards id allocation.  Lookups stay lock-free (a dict read under the
#: GIL either sees the id or misses and takes the lock); allocation is
#: append-then-publish under the lock so a concurrent reader never sees
#: an id without its value.
_INTERN_LOCK = threading.Lock()
_CONTAINERS = (tuple, frozenset)


def typed_key(value: Hashable) -> Hashable:
    """``value`` paired with its type, tuples and frozensets element by
    element: two values have equal typed keys exactly when they have the
    same type and compare equal, so ``1``, ``1.0`` and ``True`` have
    three keys."""
    if isinstance(value, tuple):
        return (value.__class__, tuple(map(typed_key, value)))
    if isinstance(value, frozenset):
        return (value.__class__, frozenset(map(typed_key, value)))
    return (value.__class__, value)


def intern_value(value: Hashable) -> int:
    """The process-wide id of ``value`` (allocating one on first sight).

    Values of different types get different ids (:func:`typed_key`).
    Thread-safe: concurrent first sights of the same value converge on
    one id.  Raises :class:`~repro.errors.RelationError` for unhashable
    values -- the same contract :class:`Row` enforces.
    """
    try:
        vid = _IDS.get(value)
    except TypeError as exc:
        raise RelationError(
            f"tuple values must be hashable, got {value!r}"
        ) from exc
    if vid is not None and _VALUES[vid].__class__ is value.__class__:
        return vid
    return _intern_typed(value)


def _intern_typed(value: Hashable) -> int:
    """The id of ``value`` off the hit path: a first sight, a tuple or
    frozenset, or a scalar equal to an earlier one of another type."""
    key = typed_key(value)
    vid = _TYPED.get(key)
    if vid is not None:
        return vid
    container = isinstance(value, _CONTAINERS)
    with _INTERN_LOCK:
        vid = _IDS.get(value)
        if vid is not None and not container and _VALUES[vid].__class__ is value.__class__:
            return vid
        vid = _TYPED.get(key)
        if vid is None:
            vid = len(_VALUES)
            _VALUES.append(value)
            if container or value in _IDS:
                _TYPED[key] = vid
            else:
                _IDS[value] = vid
    return vid


def lookup_value(value: Hashable) -> Optional[int]:
    """The id of ``value`` if it was ever interned, else ``None``."""
    try:
        vid = _IDS.get(value)
    except TypeError:
        return None
    if vid is not None and _VALUES[vid].__class__ is value.__class__:
        return vid
    return _TYPED.get(typed_key(value))


def value_of(vid: int) -> Hashable:
    """The value behind an interned id."""
    return _VALUES[vid]


def interned_count() -> int:
    """How many distinct values the interner currently holds."""
    return len(_VALUES)


def decode_row(order: Tuple[str, ...], idrow: IdRow) -> Tuple[Tuple[str, Hashable], ...]:
    """The (attribute, value) pairs of an id row, in table order."""
    return tuple(zip(order, map(_VALUES.__getitem__, idrow)))


# -- the columnar table --------------------------------------------------------


class ColumnarTable:
    """A relation state as positional id tuples over a sorted attribute order.

    ``order`` is the scheme's attributes in lexicographic order -- the one
    canonical layout per scheme, so equal-scheme tables are always
    positionally aligned.  ``rows`` is a frozenset of id tuples; its size
    is the paper's ``tau`` without any Row object ever existing.

    A table is born in one of two representations and converts lazily
    (each conversion cached; tables are immutable):

    * ``ColumnarTable(order, rows)`` -- from any iterable of id tuples
      (deduplicated into a frozenset, the historical constructor);
    * :meth:`from_columns` -- from position-aligned, duplicate-free id
      columns (every join kernel's output, built column-at-a-time: no
      row tuple and no hashing until rows are actually read).
    """

    __slots__ = ("order", "_rows", "_rowlist", "_nrows", "_columns", "_decoded")

    def __init__(self, order: Iterable[str], rows: Iterable[IdRow] = ()):
        self.order: Tuple[str, ...] = tuple(order)
        self._rows: Optional[FrozenSet[IdRow]] = (
            rows if isinstance(rows, frozenset) else frozenset(rows)
        )
        self._rowlist: Optional[List[IdRow]] = None
        self._nrows = len(self._rows)
        self._columns: Optional[Dict[str, Sequence[int]]] = None
        self._decoded: Optional[Dict[str, Tuple[Hashable, ...]]] = None

    @classmethod
    def from_columns(
        cls, order: Iterable[str], cols: Dict[str, Sequence[int]], nrows: int
    ) -> "ColumnarTable":
        """Wrap already-built, position-aligned columns (tuples or lists
        of ids) whose implied rows are duplicate-free (the join kernels'
        output contract).  Neither row tuples nor a frozenset exist
        until demanded, so a chain of joins never transposes back and
        forth."""
        table = object.__new__(cls)
        table.order = tuple(order)
        table._rows = None
        table._rowlist = None
        table._nrows = nrows
        table._columns = cols
        table._decoded = None
        return table

    @property
    def rows(self) -> FrozenSet[IdRow]:
        """The tuple set (built lazily from the columns on first use)."""
        r = self._rows
        if r is None:
            r = self._rows = frozenset(self.row_list())
        return r

    def row_list(self) -> List[IdRow]:
        """The rows as an ordered, duplicate-free list (computed once).

        Positions align with :meth:`columns`: row ``i`` of the list is
        the tuple of position ``i`` of every column.
        """
        rl = self._rowlist
        if rl is None:
            cols = self._columns
            if cols is not None:
                rl = list(zip(*(cols[attr] for attr in self.order)))
            else:
                rl = list(self._rows)
            self._rowlist = rl
        return rl

    @property
    def tau(self) -> int:
        """The tuple count (``tau`` of the encoded relation)."""
        return self._nrows

    def columns(self) -> Dict[str, Tuple[int, ...]]:
        """Per-attribute id columns (computed once, then cached).

        Column positions are aligned across attributes and with
        :meth:`row_list`: position ``i`` of every column belongs to row
        ``i`` of the list.
        """
        cols = self._columns
        if cols is None:
            rl = self.row_list()
            series = list(zip(*rl)) if rl else [() for _ in self.order]
            cols = self._columns = dict(zip(self.order, series))
        return cols

    def column(self, attribute: str) -> Tuple[int, ...]:
        """The id column for one attribute (cached with the rest)."""
        try:
            return self.columns()[attribute]
        except KeyError:
            raise RelationError(
                f"no column {attribute!r} in table over {self.order}"
            ) from None

    def decoded_column(self, attribute: str) -> Tuple[Hashable, ...]:
        """The value column for one attribute (ids resolved; cached)."""
        decoded = self._decoded
        if decoded is None:
            decoded = self._decoded = {}
        col = decoded.get(attribute)
        if col is None:
            col = decoded[attribute] = tuple(
                map(_VALUES.__getitem__, self.column(attribute))
            )
        return col

    def __len__(self) -> int:
        return self._nrows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ColumnarTable {''.join(self.order)}: {self._nrows} rows>"


# -- kernel operators ----------------------------------------------------------


def _keys_of(cols: Dict[str, Sequence[int]], common: List[str]):
    """All composite join keys of a table in row-list order, built with
    one bulk ``zip`` (single-attribute keys are the column itself)."""
    if len(common) == 1:
        return cols[common[0]]
    return list(zip(*(cols[attr] for attr in common)))


#: ``partial(is_not, None)`` -- a C-speed "was there a bucket hit" test.
_HIT = partial(is_not, None)


def join_tables(left: ColumnarTable, right: ColumnarTable) -> ColumnarTable:
    """Natural join of two tables (Cartesian product on disjoint orders).

    Batch-at-a-time: bulk-zip keys, key->row-index-array hash build,
    single-pass probe emitting output columns.

    The only Python-level loop is the hash build over the *smaller*
    input; the probe is a ``map``/``compress`` pipeline that runs
    entirely in C: one bulk pass looks every probe key up, and one
    drops the misses.  Each side then gets one ``operator.itemgetter``
    over its output positions, built straight from the flattened index
    iterators: the chained hit lists on the build side, each matched
    probe position repeated by its fan-out on the probe side.  Applying
    it to a column gathers that output column in one C call.

    The output is born as columns (tuples of ids), **not** a set: an
    output row restricted to the probe scheme recovers the probe row and
    restricted to the build scheme recovers the build row (shared
    attributes carry equal ids on a match), so distinct matched pairs
    produce distinct outputs, no dedup is needed, and the row set is
    built lazily, only if someone asks for it.
    """
    lcols = left.columns()
    rcols = right.columns()
    common = [attr for attr in left.order if attr in rcols]
    out_order = tuple(sorted(set(left.order) | set(right.order)))
    enabled = _METRICS.enabled
    n_left, n_right = len(left), len(right)

    if not common:
        # Cartesian product, by block repetition: the left column value
        # for row i repeats n_right times; the right column tiles whole.
        if n_left and n_right:
            out_cols: Dict[str, Sequence[int]] = {}
            for attr in left.order:
                out_cols[attr] = tuple(
                    chain.from_iterable(map(repeat, lcols[attr], repeat(n_right)))
                )
            for attr in right.order:
                out_cols[attr] = tuple(rcols[attr]) * n_left
            result = ColumnarTable.from_columns(out_order, out_cols, n_left * n_right)
        else:
            result = ColumnarTable(out_order)
        if enabled:
            _JOINS.inc(kind="product")
            _COMPARISONS.inc(n_left * n_right, kind="product")
            _OUTPUT_TUPLES.inc(len(result), kind="product")
        return result

    # Build the hash table on the smaller input (left on equal sizes).
    if n_left <= n_right:
        build, probe, bcols, pcols = left, right, lcols, rcols
    else:
        build, probe, bcols, pcols = right, left, rcols, lcols

    buckets: Dict[Hashable, List[int]] = {}
    setdefault = buckets.setdefault
    for i, key in enumerate(_keys_of(bcols, common)):
        setdefault(key, []).append(i)

    # The probe, in C: look every key up in one bulk map, drop the
    # misses, and count each hit's fan-out.
    nested = list(map(buckets.get, _keys_of(pcols, common)))
    mask = list(map(_HIT, nested))
    hit_lists = list(compress(nested, mask))
    fanout = list(map(len, hit_lists))
    size = sum(fanout)

    # Emit output columns: one getter per side picks every output
    # position in one C call per column.  The build side's positions are
    # the flattened hit lists; the probe side's repeat each matched
    # position by its fan-out, as ``(i,) * n``.  Shared attributes read
    # from the probe side.
    if size:
        take_build = _picker(chain.from_iterable(hit_lists), size)
        take_probe = _picker(
            chain.from_iterable(map(mul, zip(compress(count(), mask)), fanout)), size
        )
        out_cols = {
            attr: take_probe(pcols[attr]) if attr in pcols else take_build(bcols[attr])
            for attr in out_order
        }
    else:
        out_cols = dict.fromkeys(out_order, ())
    result = ColumnarTable.from_columns(out_order, out_cols, size)
    if enabled:
        _JOINS.inc(kind="hash")
        _PROBES.inc(len(probe), kind="hash")
        _COMPARISONS.inc(size, kind="hash")
        _OUTPUT_TUPLES.inc(size, kind="hash")
    return result


def _picker(
    positions: Iterable[int], size: int
) -> Callable[[Sequence[int]], Tuple[int, ...]]:
    """A getter that picks ``positions`` (``size`` >= 1 of them, in
    order) out of a column as a tuple: an ``itemgetter``, whose one call
    per column runs the whole gather in C.  With a single position
    ``itemgetter`` returns the bare item, so that one is wrapped."""
    getter = itemgetter(*positions)
    if size == 1:
        return lambda column: (getter(column),)
    return getter


def semijoin_tables(left: ColumnarTable, right: ColumnarTable) -> ColumnarTable:
    """Semijoin ``left ⋉ right``: the left rows that join with ``right``."""
    right_attrs = set(right.order)
    common = [attr for attr in left.order if attr in right_attrs]
    if not common:
        # With disjoint orders every pair joins, unless right is empty.
        return left if len(right) else ColumnarTable(left.order)
    keys = set(_keys_of(right.columns(), common))
    lcols = left.columns()
    mask = list(map(keys.__contains__, _keys_of(lcols, common)))
    out_cols = {attr: list(compress(lcols[attr], mask)) for attr in left.order}
    return ColumnarTable.from_columns(left.order, out_cols, sum(mask))


def antijoin_tables(left: ColumnarTable, right: ColumnarTable) -> ColumnarTable:
    """Antijoin: the left rows that do *not* join with ``right``."""
    right_attrs = set(right.order)
    common = [attr for attr in left.order if attr in right_attrs]
    if not common:
        return ColumnarTable(left.order) if len(right) else left
    keys = set(_keys_of(right.columns(), common))
    lcols = left.columns()
    mask = list(map(not_, map(keys.__contains__, _keys_of(lcols, common))))
    out_cols = {attr: list(compress(lcols[attr], mask)) for attr in left.order}
    return ColumnarTable.from_columns(left.order, out_cols, sum(mask))


def project_table(table: ColumnarTable, wanted_order: Tuple[str, ...]) -> ColumnarTable:
    """Projection onto ``wanted_order`` (a sorted subset of the table
    order), with set-semantics dedup on the id tuples.

    This is the one operator where set semantics force a dedup; it is
    paid as a single bulk ``zip`` of the picked columns straight into a
    frozenset (one C call end to end).
    """
    cols = table.columns()
    return ColumnarTable(
        wanted_order, frozenset(zip(*(cols[attr] for attr in wanted_order)))
    )
