"""Join trees and the Section 5 notion of connectedness.

An alpha-acyclic database scheme can be represented by a *join tree*
(Beeri et al.; also called a *qual tree* by Goodman and Shmueli): a tree
whose nodes are the relation schemes such that, for every attribute, the
nodes containing that attribute induce a connected subtree (the *running
intersection* / connectedness property).

The paper's Section 5 redefines connectivity for alpha-acyclic schemes:
a subset ``E`` is *connected* iff it induces a subtree of **some** join
tree of ``D``, and ``E1`` is *linked* to ``E2`` iff ``F1 ∪ F2`` is
connected for some ``F1 ⊆ E1, F2 ⊆ E2``.  Because the quantifier ranges
over all join trees, we enumerate them (feasible at this reproduction's
scheme sizes) via spanning trees of the attribute-weighted intersection
graph: a spanning tree is a join tree iff its weight attains the maximum
(Maier's classical characterization), and we double-check the running
intersection property explicitly.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import AcyclicityError
from repro.relational.attributes import AttributeSet, format_attrs
from repro.schemegraph.acyclicity import is_alpha_acyclic
from repro.schemegraph.scheme import DatabaseScheme, scheme_of

__all__ = [
    "JoinTree",
    "build_join_tree",
    "all_join_trees",
    "connected_in_some_join_tree",
    "linked_in_join_tree_sense",
]

Edge = Tuple[AttributeSet, AttributeSet]


def _normalize_edge(a: AttributeSet, b: AttributeSet) -> Edge:
    return (a, b) if a.sorted() <= b.sorted() else (b, a)


class JoinTree:
    """An undirected tree over the relation schemes of a database scheme.

    Instances are only constructed for trees satisfying the running
    intersection property (checked in ``__init__``).
    """

    __slots__ = ("_scheme", "_edges", "_adjacency")

    def __init__(self, scheme: DatabaseScheme, edges: Sequence[Edge]):
        self._scheme = scheme
        normalized = frozenset(_normalize_edge(a, b) for a, b in edges)
        nodes = scheme.sorted_schemes()
        if len(normalized) != len(nodes) - 1:
            raise AcyclicityError(
                f"a tree over {len(nodes)} nodes needs {len(nodes) - 1} edges, "
                f"got {len(normalized)}"
            )
        adjacency: Dict[AttributeSet, List[AttributeSet]] = {n: [] for n in nodes}
        for a, b in normalized:
            if a not in adjacency or b not in adjacency:
                raise AcyclicityError("join-tree edge references an unknown scheme")
            adjacency[a].append(b)
            adjacency[b].append(a)
        for neighbours in adjacency.values():
            neighbours.sort(key=AttributeSet.sorted)
        self._scheme = scheme
        self._edges: FrozenSet[Edge] = normalized
        self._adjacency = adjacency
        if not self._spans(set(nodes)):
            raise AcyclicityError("join-tree edges do not form a spanning tree")
        if not self._has_running_intersection():
            raise AcyclicityError(
                "edges form a spanning tree but violate the running "
                "intersection property; not a join tree"
            )

    def _spans(self, nodes: Set[AttributeSet]) -> bool:
        start = next(iter(nodes))
        seen = {start}
        stack = [start]
        while stack:
            for neighbor in self._adjacency[stack.pop()]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        return seen == nodes

    def _has_running_intersection(self) -> bool:
        for attr in self._scheme.attributes.sorted():
            holders = {n for n in self._adjacency if attr in n}
            if not self._subset_is_subtree(holders):
                return False
        return True

    def _subset_is_subtree(self, subset: Set[AttributeSet]) -> bool:
        """True when ``subset`` induces a connected subgraph of the tree."""
        if not subset:
            return True
        start = next(iter(subset))
        seen = {start}
        stack = [start]
        while stack:
            for neighbor in self._adjacency[stack.pop()]:
                if neighbor in subset and neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        return seen == subset

    # -- public API ---------------------------------------------------------------

    @property
    def scheme(self) -> DatabaseScheme:
        """The database scheme this is a join tree for."""
        return self._scheme

    @property
    def edges(self) -> FrozenSet[Edge]:
        """The tree edges (normalized pairs of relation schemes)."""
        return self._edges

    def neighbors(self, node: AttributeSet) -> Tuple[AttributeSet, ...]:
        """The schemes adjacent to ``node`` in the tree."""
        return tuple(self._adjacency[node])

    def induces_subtree(self, subset) -> bool:
        """True when the given schemes induce a connected subtree."""
        chosen = set(scheme_of(subset).schemes)
        if not chosen <= set(self._adjacency):
            raise AcyclicityError("subset contains schemes outside the join tree")
        return self._subset_is_subtree(chosen)

    def rooted_at(self, root: AttributeSet) -> List[Tuple[AttributeSet, Optional[AttributeSet]]]:
        """A (node, parent) listing in BFS order from ``root``.

        Used by the Yannakakis evaluation's upward/downward passes.
        """
        if root not in self._adjacency:
            raise AcyclicityError(f"{format_attrs(root)} is not a node of this tree")
        order: List[Tuple[AttributeSet, Optional[AttributeSet]]] = [(root, None)]
        seen = {root}
        for node, _ in order:  # the listing is the BFS queue
            for neighbor in self._adjacency[node]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    order.append((neighbor, node))
        return order

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JoinTree):
            return NotImplemented
        return self._scheme == other._scheme and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._scheme, self._edges))

    def __repr__(self) -> str:
        edges = ", ".join(
            f"{format_attrs(a)}-{format_attrs(b)}"
            for a, b in sorted(self._edges, key=lambda e: (e[0].sorted(), e[1].sorted()))
        )
        return f"JoinTree({edges})"


def _candidate_edges(db: DatabaseScheme) -> List[Tuple[int, Edge]]:
    """Weighted intersection-graph edges: (shared-attribute count, edge)."""
    out = []
    for a, b in combinations(db.sorted_schemes(), 2):
        weight = len(a & b)
        if weight:
            out.append((weight, _normalize_edge(a, b)))
    return out


def build_join_tree(scheme) -> JoinTree:
    """Build one join tree for an alpha-acyclic connected database scheme.

    The scheme's :class:`~repro.schemegraph.index.SubsetIndex` tree of
    the whole scheme: the intersection graph itself when it is a
    forest, else Maier's maximum-weight spanning tree, one Kruskal pass
    over the pairs sharing attributes, heaviest first, whose weight also
    decides acyclicity.  The same call gives the tau counter and the
    Yannakakis pipeline their trees, so the consistency code, the
    counter and the pipeline build every tree one way.  The
    edges are validated again by :class:`JoinTree`.  Raises
    :class:`~repro.errors.AcyclicityError` when the scheme is not
    alpha-acyclic or not connected.
    """
    db = scheme_of(scheme)
    if not db.is_connected():
        raise AcyclicityError("join trees are defined for connected schemes")
    index = db.subset_index()
    edges = index.join_tree(index.full)
    if edges is None:
        raise AcyclicityError(f"{db} is not alpha-acyclic; it has no join tree")
    nodes = index.schemes
    return JoinTree(
        db, [(nodes[a.bit_length() - 1], nodes[b.bit_length() - 1]) for a, b in edges]
    )


def all_join_trees(scheme) -> Iterator[JoinTree]:
    """Enumerate *all* join trees of an alpha-acyclic connected scheme.

    Enumerates spanning trees of the intersection graph by backtracking
    and keeps those satisfying the running intersection property.
    Exponential in the worst case; intended for the small schemes this
    reproduction studies (the Section 5 quantifier "some join tree"
    requires it).
    """
    db = scheme_of(scheme)
    if not db.is_connected():
        raise AcyclicityError("join trees are defined for connected schemes")
    if not is_alpha_acyclic(db):
        return
    nodes = db.sorted_schemes()
    if len(nodes) == 1:
        yield JoinTree(db, [])
        return
    edges = [edge for _, edge in _candidate_edges(db)]
    needed = len(nodes) - 1
    seen: Set[FrozenSet[Edge]] = set()

    def connects(subset: Sequence[Edge]) -> bool:
        parent = {n: n for n in nodes}

        def find(x: AttributeSet) -> AttributeSet:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        merged = 0
        for a, b in subset:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
                merged += 1
        return merged == needed

    for combo in combinations(edges, needed):
        if not connects(combo):
            continue
        key = frozenset(combo)
        if key in seen:
            continue
        seen.add(key)
        try:
            yield JoinTree(db, combo)
        except AcyclicityError:
            continue


def connected_in_some_join_tree(scheme, subset) -> bool:
    """Section 5 connectedness for alpha-acyclic schemes: ``subset``
    induces a subtree of *some* join tree of ``scheme``."""
    chosen = scheme_of(subset)
    return any(tree.induces_subtree(chosen) for tree in all_join_trees(scheme))


def linked_in_join_tree_sense(scheme, first, second) -> bool:
    """Section 5 linkedness: ``F1 ∪ F2`` is connected (in the join-tree
    sense) for some nonempty ``F1 ⊆ first``, ``F2 ⊆ second``."""
    db = scheme_of(scheme)
    first_db = scheme_of(first)
    second_db = scheme_of(second)
    for f1 in first_db.subsets():
        for f2 in second_db.subsets():
            union = f1.union(f2)
            if connected_in_some_join_tree(db, union):
                return True
    return False
