"""Database schemes and the paper's connectivity vocabulary.

A *database scheme* ``D`` is a finite nonempty set of relation schemes
(paper, Section 2).  The key derived notions, implemented here exactly as
defined:

* ``D1`` is **linked** to ``D2``  iff  ``(∪D1) ∩ (∪D2) ≠ ∅``;
* ``D1`` and ``D2`` are **disjoint**  iff  ``D1 ∩ D2 = ∅`` (as sets of
  relation schemes -- they may still be linked!);
* ``D`` is **connected**  iff  it is not the union of two disjoint,
  non-linked database schemes;
* a **component** of ``D`` is a maximal connected subset not linked to the
  rest.

:class:`DatabaseScheme` is immutable and hashable so it can key caches of
intermediate join results.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from repro.errors import SchemaError
from repro.relational.attributes import AttributeSet, AttrsLike, attrs, format_attrs
from repro.schemegraph.index import SubsetIndex

__all__ = ["DatabaseScheme", "are_linked", "scheme_of", "SchemeLike"]

#: Anything convertible to a :class:`DatabaseScheme` by :func:`scheme_of`:
#: an existing scheme, or an iterable of attribute-set specs.
SchemeLike = Iterable[AttrsLike]


def scheme_of(spec) -> "DatabaseScheme":
    """Coerce ``spec`` into a :class:`DatabaseScheme`.

    Accepts an existing scheme (returned as is) or an iterable of relation
    scheme specs, each accepted by :func:`repro.relational.attributes.attrs`
    (so ``scheme_of(["ABC", "BE", "DF"])`` works).
    """
    if isinstance(spec, DatabaseScheme):
        return spec
    return DatabaseScheme(attrs(r) for r in spec)


class DatabaseScheme:
    """An immutable set of relation schemes, viewed as a hypergraph."""

    __slots__ = ("_schemes", "_hash", "_components", "_index")

    def __init__(self, schemes: Iterable[AttrsLike]):
        if type(schemes) is frozenset and all(
            type(s) is AttributeSet and s for s in schemes
        ):
            # Already normalized (a union of two schemes, a strategy's
            # node): nothing for attrs() to convert or reject.
            scheme_set = schemes
        else:
            scheme_set = frozenset(attrs(s) for s in schemes)
        if not scheme_set:
            raise SchemaError("a database scheme must contain at least one relation scheme")
        self._schemes: FrozenSet[AttributeSet] = scheme_set
        self._hash = hash(scheme_set)
        self._components: Optional[Tuple["DatabaseScheme", ...]] = None
        self._index: Optional[SubsetIndex] = None

    # -- container interface --------------------------------------------------

    def __iter__(self) -> Iterator[AttributeSet]:
        return iter(self.sorted_schemes())

    def __len__(self) -> int:
        return len(self._schemes)

    def __contains__(self, scheme: object) -> bool:
        return scheme in self._schemes

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DatabaseScheme):
            return NotImplemented
        return self._schemes == other._schemes

    def __hash__(self) -> int:
        return self._hash

    def __le__(self, other: "DatabaseScheme") -> bool:
        return self._schemes <= other._schemes

    def __lt__(self, other: "DatabaseScheme") -> bool:
        return self._schemes < other._schemes

    @property
    def schemes(self) -> FrozenSet[AttributeSet]:
        """The relation schemes as a frozenset."""
        return self._schemes

    def sorted_schemes(self) -> Tuple[AttributeSet, ...]:
        """The relation schemes in deterministic order."""
        return tuple(sorted(self._schemes, key=lambda s: s.sorted()))

    @property
    def attributes(self) -> AttributeSet:
        """``∪D``: all attributes mentioned by any relation scheme."""
        universe = AttributeSet()
        for scheme in self._schemes:
            universe |= scheme
        return universe

    # -- set algebra on database schemes ------------------------------------------

    def union(self, other: "DatabaseScheme") -> "DatabaseScheme":
        """The union of the two sets of relation schemes."""
        return DatabaseScheme(self._schemes | other._schemes)

    def difference(self, other: Iterable[AttributeSet]) -> "DatabaseScheme":
        """The schemes of ``self`` not in ``other`` (must be nonempty)."""
        remaining = self._schemes - frozenset(attrs(s) for s in other)
        if not remaining:
            raise SchemaError("difference would leave an empty database scheme")
        return DatabaseScheme(remaining)

    def restrict(self, subset: Iterable[AttrsLike]) -> "DatabaseScheme":
        """The sub-scheme with exactly the given relation schemes.

        Raises :class:`~repro.errors.SchemaError` if any requested scheme is
        not part of this database scheme.
        """
        chosen = frozenset(attrs(s) for s in subset)
        if not chosen <= self._schemes:
            missing = chosen - self._schemes
            raise SchemaError(
                "schemes not in this database scheme: "
                + ", ".join(format_attrs(s) for s in sorted(missing, key=tuple))
            )
        return DatabaseScheme(chosen)

    def is_disjoint_from(self, other: "DatabaseScheme") -> bool:
        """Paper's *disjoint*: no relation scheme in common."""
        return self._schemes.isdisjoint(other._schemes)

    def is_linked_to(self, other: "DatabaseScheme") -> bool:
        """Paper's *linked*: the attribute unions intersect."""
        return bool(self.attributes & other.attributes)

    # -- connectivity ----------------------------------------------------------------

    def _adjacency(self) -> Dict[AttributeSet, List[AttributeSet]]:
        """The intersection graph: schemes adjacent iff they share attributes."""
        ordered = self.sorted_schemes()
        adjacency: Dict[AttributeSet, List[AttributeSet]] = {
            scheme: [] for scheme in ordered
        }
        for left, right in combinations(ordered, 2):
            if left & right:
                adjacency[left].append(right)
                adjacency[right].append(left)
        return adjacency

    def is_connected(self) -> bool:
        """Paper's *connected*: not splittable into two non-linked parts.

        Equivalent to the intersection graph being connected.
        """
        return len(self.components()) == 1

    def components(self) -> List["DatabaseScheme"]:
        """The components of ``D``, in deterministic order.

        Each component is a maximal connected subset not linked to the
        rest (paper, Section 2).  Computed once per scheme and cached
        (schemes are immutable), since connectivity queries dominate the
        CP-avoiding enumerators and the unconnected-tau product rule.
        """
        if self._components is not None:
            return list(self._components)
        adjacency = self._adjacency()
        seen: Set[AttributeSet] = set()
        components: List[DatabaseScheme] = []
        for scheme in self.sorted_schemes():
            if scheme in seen:
                continue
            stack = [scheme]
            group = []
            while stack:
                node = stack.pop()
                if node in seen:
                    continue
                seen.add(node)
                group.append(node)
                stack.extend(n for n in adjacency[node] if n not in seen)
            components.append(DatabaseScheme(group))
        self._components = tuple(components)
        return components

    def subset_index(self) -> SubsetIndex:
        """The :class:`~repro.schemegraph.index.SubsetIndex` of this
        scheme: its relations as bits, for the subset DP, the tau-only
        path and the join-tree builds.  Built on first use and cached
        (schemes are immutable)."""
        index = self._index
        if index is None:
            index = self._index = SubsetIndex(self._schemes)
        return index

    def component_count(self) -> int:
        """The paper's ``comp(D)``."""
        return len(self.components())

    def component_of(self, scheme: AttrsLike) -> "DatabaseScheme":
        """The component containing the given relation scheme."""
        target = attrs(scheme)
        for component in self.components():
            if target in component:
                return component
        raise SchemaError(
            f"{format_attrs(target)} is not a relation scheme of this database scheme"
        )

    # -- subset enumeration -----------------------------------------------------------

    def subsets(
        self, min_size: int = 1, max_size: Optional[int] = None
    ) -> Iterator["DatabaseScheme"]:
        """All nonempty sub-schemes within the size bounds, smallest first."""
        ordered = self.sorted_schemes()
        upper = len(ordered) if max_size is None else min(max_size, len(ordered))
        for size in range(max(1, min_size), upper + 1):
            for combo in combinations(ordered, size):
                yield DatabaseScheme(combo)

    def connected_subsets(self, min_size: int = 1) -> Iterator["DatabaseScheme"]:
        """All *connected* sub-schemes of at least ``min_size`` relations,
        in the canonical order of
        :meth:`~repro.schemegraph.index.SubsetIndex.connected` (each
        connected subset produced exactly once, so the cost is
        proportional to the number of connected subsets rather than to
        ``2^|D|``).
        """
        index = self.subset_index()
        for mask in index.connected():
            if bin(mask).count("1") >= min_size:
                yield DatabaseScheme(index.members(mask))

    # -- presentation ----------------------------------------------------------------

    def __repr__(self) -> str:
        return f"DatabaseScheme({self})"

    def __str__(self) -> str:
        return "{" + ", ".join(format_attrs(s) for s in self.sorted_schemes()) + "}"


def are_linked(first: SchemeLike, second: SchemeLike) -> bool:
    """Module-level convenience for the paper's *linked* predicate."""
    return scheme_of(first).is_linked_to(scheme_of(second))
