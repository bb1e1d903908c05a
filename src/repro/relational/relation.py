"""Relations: schemes, tuples, and the relational algebra.

This is the execution substrate for the whole reproduction.  The paper's
cost measure ``tau`` is the number of tuples generated by each join step,
under *set* semantics; :class:`Relation` is therefore an immutable set of
:class:`Row` objects over a fixed scheme, and :meth:`Relation.join`
implements the natural join exactly as defined in the paper's Section 2:

    R |><| R' = { t over R ∪ R' : t[R] in R and t[R'] in R' }

The natural join is computed with a hash join on the common attributes;
when the schemes are disjoint it degenerates to the Cartesian product,
again exactly as in the paper.

Execution routes through the columnar kernel
(:mod:`repro.relational.columnar`): each relation carries a lazily built
columnar view (positional tuples of interned value ids), the algebra
operates on id tuples, and :class:`Row` objects are materialized only
when the public row-level API (``rows``, iteration, ``select``) is
actually used.  ``len(r)`` -- the paper's ``tau(R)`` -- never
materializes rows.  The nested-loop oracle in ``tests/oracle.py`` is the
reference the algebra is tested against (see docs/performance.md).
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import RelationError, SchemaError
from repro.relational.attributes import AttributeSet, AttrsLike, attrs, format_attrs
from repro.relational.columnar import (
    ColumnarTable,
    antijoin_tables,
    decode_row,
    intern_value,
    join_tables,
    project_table,
    semijoin_tables,
)

__all__ = ["Row", "Relation", "RelationSchema", "relation"]

#: A relation scheme is a nonempty set of attributes (paper, Section 2).
RelationSchema = AttributeSet


class Row:
    """An immutable tuple over a relation scheme.

    A tuple (in the relational sense) is a mapping from each attribute of
    its scheme to a value; values may be any hashable Python objects.
    ``Row`` is hashable and compares by its attribute-value mapping, so a
    :class:`Relation` can hold rows in a plain frozenset.

    Lookups (``row[attr]``, ``row.get``, ``values_for``) are O(1) per
    attribute: the mapping is backed by a dict built once in ``__init__``.
    """

    __slots__ = ("_items", "_map", "_hash")

    def __init__(self, mapping: Mapping[str, Hashable]):
        if not mapping:
            raise RelationError("a tuple must bind at least one attribute")
        items = tuple(sorted(mapping.items()))
        for attr, value in items:
            if not isinstance(attr, str) or not attr:
                raise RelationError(
                    f"tuple attributes must be nonempty strings, got {attr!r}"
                )
            try:
                hash(value)
            except TypeError as exc:
                raise RelationError(
                    f"tuple values must be hashable, got {value!r} for {attr}"
                ) from exc
        self._items: Tuple[Tuple[str, Hashable], ...] = items
        self._map: Dict[str, Hashable] = dict(items)
        self._hash = hash(items)

    @classmethod
    def _from_pairs(cls, items: Tuple[Tuple[str, Hashable], ...]) -> "Row":
        """Internal fast path: build from already-validated pairs sorted by
        attribute (the kernel's decode boundary)."""
        row = object.__new__(cls)
        row._items = items
        row._map = dict(items)
        row._hash = hash(items)
        return row

    # -- mapping interface ---------------------------------------------------

    def __getitem__(self, attribute: str) -> Hashable:
        return self._map[attribute]

    def get(self, attribute: str, default: Hashable = None) -> Hashable:
        """The value bound to ``attribute``, or ``default`` if absent."""
        return self._map.get(attribute, default)

    def keys(self) -> AttributeSet:
        """The scheme this tuple ranges over."""
        return AttributeSet(self._map)

    def items(self) -> Tuple[Tuple[str, Hashable], ...]:
        """The (attribute, value) pairs in attribute order."""
        return self._items

    def as_dict(self) -> Dict[str, Hashable]:
        """A fresh mutable dict copy of the mapping."""
        return dict(self._map)

    def __iter__(self) -> Iterator[str]:
        return (attr for attr, _ in self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, attribute: object) -> bool:
        return attribute in self._map

    # -- restriction (the paper's t[X]) ---------------------------------------

    def project(self, attributes: AttrsLike) -> "Row":
        """The restriction ``t[X]`` of this tuple to attributes ``X``.

        Raises :class:`~repro.errors.RelationError` if ``X`` is not a subset
        of the tuple's scheme.
        """
        wanted = attrs(attributes)
        own = self.keys()
        if not wanted <= own:
            raise RelationError(
                f"cannot restrict tuple over {format_attrs(own)} "
                f"to {format_attrs(wanted)}"
            )
        return Row({attr: value for attr, value in self._items if attr in wanted})

    def values_for(self, attributes: Sequence[str]) -> Tuple[Hashable, ...]:
        """The values for ``attributes`` in the given order (join keys)."""
        mapping = self._map
        return tuple(mapping[attr] for attr in attributes)

    def merge(self, other: "Row") -> "Row":
        """Combine two joinable tuples into one over the union scheme.

        The tuples must agree on every shared attribute; this is the tuple
        produced by a successful natural-join match.
        """
        merged = dict(self._map)
        for attr, value in other._items:
            if attr in merged and merged[attr] != value:
                raise RelationError(
                    f"tuples disagree on {attr}: {merged[attr]!r} != {value!r}"
                )
            merged[attr] = value
        return Row(merged)

    # -- dunder plumbing -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Row):
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        body = ", ".join(f"{attr}={value!r}" for attr, value in self._items)
        return f"Row({body})"


class Relation:
    """An immutable relation: a scheme plus a finite set of tuples over it.

    Relations are value objects -- all algebra operations return new
    relations.  ``len(r)`` is the paper's ``tau(R)``.  An optional ``name``
    is carried for display and for building readable strategies; it does
    not participate in equality.

    Internally a relation holds its state in up to two synchronized forms:
    a frozenset of :class:`Row` objects (``_rows``) and a columnar id
    table (``_columnar``).  Kernel results start columnar with ``_rows``
    unset; the rows materialize on first row-level access.
    """

    __slots__ = ("_scheme", "_rows", "_name", "_columnar")

    def __init__(
        self,
        scheme: AttrsLike,
        rows: Iterable[Row] = (),
        name: Optional[str] = None,
    ):
        self._scheme = attrs(scheme)
        row_set = frozenset(rows)
        for row in row_set:
            if not isinstance(row, Row):
                raise RelationError(f"expected Row instances, got {row!r}")
            if row.keys() != self._scheme:
                raise RelationError(
                    f"tuple over {format_attrs(row.keys())} does not match "
                    f"scheme {format_attrs(self._scheme)}"
                )
        self._rows: Optional[FrozenSet[Row]] = row_set
        self._name = name
        self._columnar: Optional[ColumnarTable] = None

    # -- constructors ----------------------------------------------------------

    @classmethod
    def _from_table(
        cls,
        scheme: AttributeSet,
        table: ColumnarTable,
        name: Optional[str] = None,
    ) -> "Relation":
        """Internal: wrap a kernel result without materializing rows."""
        rel = object.__new__(cls)
        rel._scheme = scheme
        rel._rows = None
        rel._name = name
        rel._columnar = table
        return rel

    @classmethod
    def from_tuples(
        cls,
        scheme: AttrsLike,
        tuples: Iterable[Sequence[Hashable]],
        order: Optional[Sequence[str]] = None,
        name: Optional[str] = None,
    ) -> "Relation":
        """Build a relation from positional value tuples.

        ``order`` fixes which attribute each position binds; it defaults to
        the scheme's attributes in sorted order, matching the paper's
        convention (``R1 = AB`` with tuples ``(p, 0)`` meaning ``A=p, B=0``).

        The values are interned straight into the columnar layout; no
        :class:`Row` object exists until row-level access asks for one.
        """
        scheme_set = attrs(scheme)
        if order is None:
            order = scheme_set.sorted()
        else:
            order = tuple(order)
            if AttributeSet(order) != scheme_set or len(order) != len(scheme_set):
                raise SchemaError(
                    f"order {order!r} must list each attribute of "
                    f"{format_attrs(scheme_set)} exactly once"
                )
        sorted_order = scheme_set.sorted()
        perm = tuple(order.index(attr) for attr in sorted_order)
        width = len(order)
        encoded = set()
        for values in tuples:
            values = tuple(values)
            if len(values) != width:
                raise RelationError(
                    f"expected {width} values per tuple, got {values!r}"
                )
            encoded.add(tuple(intern_value(values[i]) for i in perm))
        return cls._from_table(
            scheme_set, ColumnarTable(sorted_order, frozenset(encoded)), name
        )

    @classmethod
    def from_dicts(
        cls,
        scheme: AttrsLike,
        dicts: Iterable[Mapping[str, Hashable]],
        name: Optional[str] = None,
    ) -> "Relation":
        """Build a relation from attribute->value mappings."""
        return cls(attrs(scheme), (Row(d) for d in dicts), name=name)

    def with_name(self, name: Optional[str]) -> "Relation":
        """A copy of this relation carrying a different display name."""
        if self._rows is None:
            return Relation._from_table(self._scheme, self._columnar, name)
        copy = Relation(self._scheme, (), name=name)
        copy._rows = self._rows
        copy._columnar = self._columnar
        return copy

    # -- the columnar view -------------------------------------------------------

    def _table(self) -> ColumnarTable:
        """The columnar view of this relation (encoded once, then cached)."""
        table = self._columnar
        if table is None:
            order = self._scheme.sorted()
            encoded = frozenset(
                tuple(intern_value(value) for value in row.values_for(order))
                for row in self._rows
            )
            table = self._columnar = ColumnarTable(order, encoded)
        return table

    def _materialize(self) -> FrozenSet[Row]:
        table = self._columnar
        order = table.order
        rows = self._rows = frozenset(
            Row._from_pairs(decode_row(order, idrow)) for idrow in table.rows
        )
        return rows

    # -- basic accessors ---------------------------------------------------------

    @property
    def scheme(self) -> AttributeSet:
        """The relation scheme (set of attributes)."""
        return self._scheme

    @property
    def rows(self) -> FrozenSet[Row]:
        """The tuple set (materialized on first access for kernel results)."""
        rows = self._rows
        if rows is None:
            rows = self._materialize()
        return rows

    @property
    def name(self) -> Optional[str]:
        """Display name, if any."""
        return self._name

    @property
    def tau(self) -> int:
        """The paper's ``tau(R)``: the number of tuples.

        Counted on the columnar view when the rows are not materialized.
        """
        return len(self)

    def __len__(self) -> int:
        rows = self._rows
        if rows is not None:
            return len(rows)
        # Every kernel output is duplicate-free by contract, so the
        # table's row count is the tuple count: no row set is built.
        return len(self._columnar)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __contains__(self, row: object) -> bool:
        return row in self.rows

    def __bool__(self) -> bool:
        return len(self) > 0

    # -- the algebra ---------------------------------------------------------------

    def join(self, other: "Relation") -> "Relation":
        """Natural join (the paper's ``R |><| R'``).

        Hash join on the common attributes; a Cartesian product when the
        schemes are disjoint.  Runs on the columnar kernel; the result's
        rows materialize lazily.
        """
        return Relation._from_table(
            self._scheme | other._scheme,
            join_tables(self._table(), other._table()),
        )

    def cross(self, other: "Relation") -> "Relation":
        """Explicit Cartesian product; requires disjoint schemes."""
        if self._scheme & other._scheme:
            raise RelationError(
                "Cartesian product requires disjoint schemes; "
                f"{format_attrs(self._scheme)} and {format_attrs(other._scheme)} "
                "share attributes (use join)"
            )
        return self.join(other)

    def project(self, attributes: AttrsLike) -> "Relation":
        """Projection onto a nonempty subset of the scheme (set semantics)."""
        wanted = attrs(attributes)
        if not wanted <= self._scheme:
            raise RelationError(
                f"cannot project {format_attrs(self._scheme)} "
                f"onto {format_attrs(wanted)}"
            )
        return Relation._from_table(
            wanted, project_table(self._table(), wanted.sorted())
        )

    def select(self, predicate: Callable[[Row], bool]) -> "Relation":
        """Selection: the rows satisfying ``predicate``."""
        return Relation(self._scheme, (r for r in self.rows if predicate(r)))

    def rename(self, mapping: Mapping[str, str]) -> "Relation":
        """Rename attributes; ``mapping`` maps old names to new names."""
        unknown = AttributeSet(mapping) - self._scheme
        if unknown:
            raise RelationError(
                f"cannot rename attributes {format_attrs(unknown)} absent from "
                f"{format_attrs(self._scheme)}"
            )
        new_scheme = [mapping.get(a, a) for a in self._scheme]
        if len(set(new_scheme)) != len(self._scheme):
            raise RelationError(f"rename {mapping!r} collapses attributes")
        rows = (
            Row({mapping.get(a, a): v for a, v in row.items()}) for row in self.rows
        )
        return Relation(new_scheme, rows)

    def semijoin(self, other: "Relation") -> "Relation":
        """Semijoin ``R ⋉ R'``: the rows of ``R`` that join with ``R'``."""
        if not self._scheme & other._scheme:
            # With disjoint schemes every pair joins, unless R' is empty.
            return self if other else Relation(self._scheme)
        return Relation._from_table(
            self._scheme, semijoin_tables(self._table(), other._table())
        )

    def antijoin(self, other: "Relation") -> "Relation":
        """Antijoin: the rows of ``self`` that do *not* join with ``other``."""
        if not self._scheme & other._scheme:
            return Relation(self._scheme) if other else self
        return Relation._from_table(
            self._scheme, antijoin_tables(self._table(), other._table())
        )

    def _require_same_scheme(self, other: "Relation", op: str) -> None:
        if self._scheme != other._scheme:
            raise RelationError(
                f"{op} requires identical schemes; got "
                f"{format_attrs(self._scheme)} and {format_attrs(other._scheme)}"
            )

    def _set_op(
        self, other: "Relation", op: str, table_op: Callable, row_op: Callable
    ) -> "Relation":
        """Shared body of the set operations: same-scheme check, then id-set
        algebra when either operand is still columnar-only (equal schemes
        mean positionally aligned tables), row-set algebra otherwise."""
        self._require_same_scheme(other, op)
        if self._rows is None or other._rows is None:
            left, right = self._table(), other._table()
            return Relation._from_table(
                self._scheme, ColumnarTable(left.order, table_op(left.rows, right.rows))
            )
        result = Relation(self._scheme, ())
        result._rows = row_op(self.rows, other.rows)
        return result

    def union(self, other: "Relation") -> "Relation":
        """Set union of two relations over the same scheme."""
        return self._set_op(
            other, "union", frozenset.__or__, frozenset.__or__
        )

    def intersection(self, other: "Relation") -> "Relation":
        """Set intersection of two relations over the same scheme."""
        return self._set_op(
            other, "intersection", frozenset.__and__, frozenset.__and__
        )

    def difference(self, other: "Relation") -> "Relation":
        """Set difference of two relations over the same scheme."""
        return self._set_op(
            other, "difference", frozenset.__sub__, frozenset.__sub__
        )

    def is_consistent_with(self, other: "Relation") -> bool:
        """Beeri et al. consistency: both project equally onto the shared
        attributes (used by the paper's Section 5).

        Relations over disjoint schemes are vacuously consistent.
        """
        common = self._scheme & other._scheme
        if not common:
            return True
        return self.project(common) == other.project(common)

    # -- operators ----------------------------------------------------------------

    def __mul__(self, other: "Relation") -> "Relation":
        """``r1 * r2`` is the natural join."""
        if not isinstance(other, Relation):
            return NotImplemented
        return self.join(other)

    def __or__(self, other: "Relation") -> "Relation":
        if not isinstance(other, Relation):
            return NotImplemented
        return self.union(other)

    def __and__(self, other: "Relation") -> "Relation":
        if not isinstance(other, Relation):
            return NotImplemented
        return self.intersection(other)

    def __sub__(self, other: "Relation") -> "Relation":
        if not isinstance(other, Relation):
            return NotImplemented
        return self.difference(other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        if self._scheme != other._scheme:
            return False
        if self._rows is not None and other._rows is not None:
            return self._rows == other._rows
        if self._columnar is not None and other._columnar is not None:
            # Same scheme => same sorted order; interning is injective, so
            # id-tuple equality is row equality.
            return self._columnar.rows == other._columnar.rows
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self._scheme, self.rows))

    def __repr__(self) -> str:
        label = self._name or format_attrs(self._scheme)
        return f"<Relation {label}: {len(self)} tuples>"

    def pretty(self, limit: Optional[int] = 20) -> str:
        """A plain-text table of the relation, for example scripts."""
        order = self._scheme.sorted()
        header = " | ".join(order)
        lines = [header, "-" * len(header)]
        shown = sorted(self.rows, key=lambda r: tuple(map(repr, r.values_for(order))))
        if limit is not None:
            shown = shown[:limit]
        for row in shown:
            lines.append(" | ".join(str(v) for v in row.values_for(order)))
        if limit is not None and len(self) > limit:
            lines.append(f"... ({len(self) - limit} more)")
        return "\n".join(lines)


def relation(
    scheme: AttrsLike,
    tuples: Iterable[Sequence[Hashable]] = (),
    order: Optional[Sequence[str]] = None,
    name: Optional[str] = None,
) -> Relation:
    """Convenience constructor mirroring the paper's notation.

    ``relation("AB", [("p", 0), ("q", 0)])`` builds a relation over scheme
    ``{A, B}`` with ``A`` bound to the first position (sorted attribute
    order), exactly as the paper's examples write their states.
    """
    return Relation.from_tuples(scheme, tuples, order=order, name=name)
