"""The columnar join kernel: interned values, positional int tuples.

This is the internal execution substrate behind :class:`~repro.relational
.relation.Relation`.  The public API works with :class:`Row` value
objects -- immutable attribute->value mappings -- but building, hashing,
and merging those per intermediate tuple dominates the runtime of every
quantity the paper defines (``tau``, C1-C4, Theorems 1-3 all reduce to
evaluating many overlapping natural joins).  The kernel removes that cost:

* **Value interning** -- every attribute value is mapped once to a small
  integer id (:func:`intern_value`).  Interning uses dict-key
  equivalence (``hash`` + ``==``), so two values receive the same id
  exactly when they would collide as dict keys.  Ids are process-wide,
  never recycled, and
  allocation is guarded by a lock so concurrent threads (the planned
  async server) cannot race an id.
* **Columnar tables** -- a :class:`ColumnarTable` is a relation state
  encoded as positional tuples of value ids over a fixed, sorted
  attribute order.  Internally a table holds whichever of three
  synchronized representations it was born with, converting lazily:

  - a ``frozenset`` of id tuples (canonical for set ops and equality),
  - an ordered, duplicate-free *row list* (what the vector kernel
    emits -- natural-join outputs are provably duplicate-free, so no
    hashing happens until someone actually needs set semantics),
  - position-aligned *columns* (what the vector kernel builds its
    outputs from, so a chain of joins never transposes to rows).

  Because the attribute order is always the sorted scheme, two tables
  over the same scheme are positionally aligned and set operations are
  raw ``frozenset`` ops on id tuples.
* **Vector kernel operators** -- the one binary kernel:
  :func:`join_tables`, :func:`semijoin_tables`,
  :func:`antijoin_tables`, and :func:`project_table` batch-at-a-time
  over columns instead of row-at-a-time over tuples: composite join
  keys are built for a whole column block with one bulk ``zip`` (one C
  call, no per-row ``itemgetter``), the hash build maps each key to an
  array of build-side row indices, and the probe is a single pass that
  emits output *columns* through C-speed ``map``/``zip`` pipelines --
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
from operator import is_not, itemgetter, not_
from typing import (
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

_IDS: Dict[Hashable, int] = {}
_VALUES: List[Hashable] = []
#: Guards id allocation.  Lookups stay lock-free (a dict read under the
#: GIL either sees the id or misses and takes the lock); allocation is
#: append-then-publish under the lock so a concurrent reader never sees
#: an id without its value.
_INTERN_LOCK = threading.Lock()


def intern_value(value: Hashable) -> int:
    """The process-wide id of ``value`` (allocating one on first sight).

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
    if vid is None:
        with _INTERN_LOCK:
            vid = _IDS.get(value)
            if vid is None:
                vid = len(_VALUES)
                _VALUES.append(value)
                _IDS[value] = vid
    return vid


def lookup_value(value: Hashable) -> Optional[int]:
    """The id of ``value`` if it was ever interned, else ``None``."""
    try:
        return _IDS.get(value)
    except TypeError:
        return None


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

    A table is born in one of three representations and converts lazily
    (each conversion cached; tables are immutable):

    * ``ColumnarTable(order, rows)`` -- from any iterable of id tuples
      (deduplicated into a frozenset, the historical constructor);
    * :meth:`from_rowlist` -- from an ordered, *already duplicate-free*
      row list (vector-kernel outputs: no hashing until set semantics
      are actually demanded);
    * :meth:`from_columns` -- from position-aligned, duplicate-free id
      columns (vector-kernel outputs built column-at-a-time).
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
    def from_rowlist(cls, order: Iterable[str], rowlist: List[IdRow]) -> "ColumnarTable":
        """Wrap an ordered row list that is guaranteed duplicate-free
        (the vector kernel's output contract).  No frozenset is built
        until :attr:`rows` is actually read."""
        table = object.__new__(cls)
        table.order = tuple(order)
        table._rows = None
        table._rowlist = rowlist
        table._nrows = len(rowlist)
        table._columns = None
        table._decoded = None
        return table

    @classmethod
    def from_columns(
        cls, order: Iterable[str], cols: Dict[str, Sequence[int]], nrows: int
    ) -> "ColumnarTable":
        """Wrap already-built, position-aligned columns whose implied
        rows are duplicate-free (the vector kernel's output contract).
        Neither row tuples nor a frozenset exist until demanded, so a
        chain of joins never transposes back and forth."""
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
        """The tuple set (built lazily from the row list or the columns
        on first use)."""
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


def _picker(indices: Tuple[int, ...]):
    """A C-speed callable mapping a tuple to the sub-tuple at ``indices``.

    ``operator.itemgetter`` returns a bare element for a single index, so
    the width-1 case is wrapped to keep the tuple-in/tuple-out contract.
    """
    if len(indices) == 1:
        getter = itemgetter(indices[0])
        return lambda row: (getter(row),)
    return itemgetter(*indices)


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
    input; the probe is a ``map``/``compress``/``chain`` pipeline that
    runs entirely in C: one bulk pass looks every probe key up, one
    flattens the hit index arrays, and one repeats each probe index by
    its hit count.  Output columns are then gathered per attribute with
    a C-speed ``map`` over the matched index arrays.

    The output is materialized as columns, **not** a set: an output row
    restricted to the probe scheme recovers the probe row and restricted
    to the build scheme recovers the build row (shared attributes carry
    equal ids on a match), so distinct matched pairs produce distinct
    outputs and no dedup is needed.
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
                out_cols[attr] = list(
                    chain.from_iterable(map(repeat, lcols[attr], repeat(n_right)))
                )
            for attr in right.order:
                out_cols[attr] = list(rcols[attr]) * n_left
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
    # misses, flatten the build-side hit arrays, and fan each probe
    # index out once per hit.
    nested = list(map(buckets.get, _keys_of(pcols, common)))
    mask = list(map(_HIT, nested))
    hit_lists = list(compress(nested, mask))
    build_idx = list(chain.from_iterable(hit_lists))
    probe_idx = list(
        chain.from_iterable(map(repeat, compress(count(), mask), map(len, hit_lists)))
    )

    # Emit output columns: each output attribute gathers from exactly
    # one side's column through a C-speed map over its index array
    # (shared attributes read from the probe side).
    out_cols = {
        attr: list(map(pcols[attr].__getitem__, probe_idx))
        if attr in pcols
        else list(map(bcols[attr].__getitem__, build_idx))
        for attr in out_order
    }
    result = ColumnarTable.from_columns(out_order, out_cols, len(build_idx))
    if enabled:
        _JOINS.inc(kind="hash")
        _PROBES.inc(len(probe), kind="hash")
        _COMPARISONS.inc(len(build_idx), kind="hash")
        _OUTPUT_TUPLES.inc(len(result), kind="hash")
    return result


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
