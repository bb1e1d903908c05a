"""The subset index of a database scheme: relations as bits, subsets as ints.

The subset DP, the tau-only path and the Yannakakis kernels all ask the
same two questions about subsets of one database scheme, hundreds of
times per query: what are the subset's components, and what is its join
tree, if it has one?  :class:`SubsetIndex` answers both on int bitmasks.
Relation ``i`` of the scheme in sorted-scheme order is bit ``1 << i``,
and a subset is the OR of its relations' bits.

The index is built once per scheme
(:meth:`~repro.schemegraph.scheme.DatabaseScheme.subset_index`) and
holds five things: each relation's neighbour mask in the intersection
graph, the relation pairs that share attributes in Kruskal order, a
holder mask for every attribute held by two or more relations, the
relation <-> bit map, and whether the intersection graph is a forest.
It also enumerates the connected subsets once, on first use, for the
condition checkers: on masks the paper's *disjoint* is ``not a & b``
and *linked* is ``linked(a) & b``.

Join trees come from the intersection graph.  The index decides once,
when it is built, whether that graph is a forest: it is iff the number
of sharing pairs equals the number of relations minus the number of
components.  In a forest every attribute is held by at most two
relations (its holders form a clique), so each connected subset is
Berge-acyclic and its join tree is its induced subgraph: a breadth-first
search over the neighbour masks inside the subset lists it.  Luo et al.
("Algorithms for Optimizing Acyclic Queries") likewise build such trees
by a graph search rather than an optimisation.

Every other scheme, cyclic or alpha-acyclic with a cycle in its
intersection graph (``AB, BC, AC, ABC``, a hyperedge chain), takes
Maier's characterization of alpha-acyclicity: a connected scheme is
alpha-acyclic iff a maximum-weight spanning tree of its intersection
graph, an edge weighing the number of attributes its ends share, is a
join tree.  Any spanning tree weighs at most
``Σ_a (|holders of a| - 1)``, because the edges whose ends both hold
``a`` form a forest over the holders of ``a``; it reaches that sum
exactly when every attribute's holders induce a subtree, which is the
running intersection property.  One Kruskal pass therefore yields both
the tree and the acyclicity verdict.  Both paths list the same tree the
same way (:meth:`SubsetIndex.join_tree`): on a forest the maximum-weight
spanning tree of a connected subset is the only spanning tree it has.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterable, List, Optional, Tuple

from repro.relational.attributes import AttributeSet

__all__ = ["SubsetIndex", "TreeEdges", "bits_of"]

#: A join tree rooted at a subset's lowest relation, as ``(child, parent)``
#: pairs of relation bits, parents listed before their children.
TreeEdges = Tuple[Tuple[int, int], ...]


def bits_of(mask: int) -> List[int]:
    """The single-bit masks set in ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low)
        mask ^= low
    return out


class SubsetIndex:
    """The relations of one database scheme numbered as bits.

    ``schemes[i]`` is relation ``i`` in sorted-scheme order (the order of
    :meth:`~repro.schemegraph.scheme.DatabaseScheme.sorted_schemes`),
    ``bit_of`` maps a relation scheme to ``1 << i``, and ``full`` is the
    mask of the whole scheme.  A subset's members, and positions within a
    subset, always follow the same order.
    """

    __slots__ = (
        "schemes", "bit_of", "full", "forest", "_neighbours", "_pairs", "_holders",
        "_shared", "_connected",
    )

    def __init__(self, schemes: Iterable[AttributeSet]):
        ordered = tuple(sorted(schemes, key=lambda s: s.sorted()))
        bits = [1 << i for i in range(len(ordered))]
        self.schemes: Tuple[AttributeSet, ...] = ordered
        self.bit_of: Dict[AttributeSet, int] = dict(zip(ordered, bits))
        self.full = (1 << len(ordered)) - 1
        neighbours = dict.fromkeys(bits, 0)
        pairs = []
        for i, j in combinations(range(len(ordered)), 2):
            weight = len(ordered[i] & ordered[j])
            if weight:
                neighbours[bits[i]] |= bits[j]
                neighbours[bits[j]] |= bits[i]
                pairs.append((-weight, i, j))
        # build_join_tree's Kruskal order: heaviest first, then by the
        # pair's schemes in sorted-scheme order.
        pairs.sort()
        holders: Dict[str, int] = {}
        for bit, scheme in zip(bits, ordered):
            for attribute in scheme:
                holders[attribute] = holders.get(attribute, 0) | bit
        shared = [m for m in holders.values() if m & (m - 1)]
        self._neighbours = neighbours
        self._pairs = tuple(
            (bits[i] | bits[j], -weight, bits[i], bits[j]) for weight, i, j in pairs
        )
        self._holders = tuple(shared)
        # Per relation: how many of its attributes some other relation holds.
        self._shared = {bit: sum(1 for m in shared if m & bit) for bit in bits}
        self._connected: Optional[Tuple[int, ...]] = None
        #: Whether the intersection graph is a forest: then every
        #: connected subset's join tree is its induced subgraph.
        self.forest = len(pairs) == len(ordered) - len(self.components(self.full))

    def mask_of(self, schemes: Iterable[AttributeSet]) -> int:
        """The mask of the given relation schemes."""
        bit_of = self.bit_of
        mask = 0
        for scheme in schemes:
            mask |= bit_of[scheme]
        return mask

    def members(self, mask: int) -> Tuple[AttributeSet, ...]:
        """The relation schemes in ``mask``, in sorted-scheme order."""
        schemes = self.schemes
        return tuple(schemes[bit.bit_length() - 1] for bit in bits_of(mask))

    def linked(self, mask: int) -> int:
        """The relations outside ``mask`` that share an attribute with it:
        a subset disjoint from ``mask`` is linked to it iff it meets this
        mask."""
        neighbours = self._neighbours
        reach = 0
        for bit in bits_of(mask):
            reach |= neighbours[bit]
        return reach & ~mask

    def connected(self) -> Tuple[int, ...]:
        """Every connected subset, as masks, in canonical order.

        Subsets are grown from each relation in turn, lowest bit first,
        never adding a relation below the start; each one extends by its
        frontier lowest bit first, and a relation already tried at a
        level is blocked in the later branches, so every connected subset
        comes out exactly once, before its extensions.  Enumerated on
        first use and cached (the index is immutable).
        """
        if self._connected is not None:
            return self._connected
        neighbours = self._neighbours
        out: List[int] = []

        def grow(current: int, frontier: int, blocked: int) -> None:
            out.append(current)
            for bit in bits_of(frontier):
                taken = blocked | bit
                grow(current | bit, (frontier | neighbours[bit]) & ~taken, taken)
                blocked = taken

        for bit in bits_of(self.full):
            below = (bit << 1) - 1
            grow(bit, neighbours[bit] & ~below, below)
        self._connected = tuple(out)
        return self._connected

    def component(self, mask: int) -> int:
        """The component of the subset ``mask`` that holds its lowest
        relation (``mask`` itself iff the subset is connected)."""
        neighbours = self._neighbours
        reached = frontier = mask & -mask
        while frontier:
            bit = frontier & -frontier
            grown = neighbours[bit] & mask & ~reached
            reached |= grown
            frontier = (frontier ^ bit) | grown
        return reached

    def components(self, mask: int) -> List[int]:
        """The components of the subset ``mask``, ordered by their lowest
        relation -- the order of
        :meth:`~repro.schemegraph.scheme.DatabaseScheme.components`."""
        out = []
        while mask:
            reached = self.component(mask)
            out.append(reached)
            mask ^= reached
        return out

    def spanning_leaf(self, mask: int) -> int:
        """The bit of a relation whose removal keeps the connected subset
        ``mask`` connected: the last relation a depth-first search from
        the lowest one pops, each popped relation pushing its unvisited
        neighbours lowest first (a leaf of the search's spanning tree)."""
        neighbours = self._neighbours
        last = seen = mask & -mask
        stack = [last]
        while stack:
            last = stack.pop()
            fresh = neighbours[last] & mask & ~seen
            seen |= fresh
            stack.extend(bits_of(fresh))
        return last

    def join_tree(self, mask: int) -> Optional[TreeEdges]:
        """A join tree of the subset ``mask``, or ``None`` when it has none.

        The edges join relation bits of ``mask``.  On a :attr:`forest`
        scheme the tree is the subset's induced subgraph, so a
        breadth-first search over the neighbour masks lists it, and an
        unconnected subset is one the search does not span.  Otherwise
        Kruskal takes the pairs inside ``mask`` heaviest first; the
        subset is alpha-acyclic iff the tree weighs
        ``Σ_a (|holders_a ∩ mask| - 1)`` over the attributes it holds
        (module docstring).  A cyclic or unconnected subset returns
        ``None``.

        The tree comes rooted at the lowest relation: each edge is a
        ``(child, parent)`` pair, listed in breadth-first order with each
        node's children in ascending bit order, so a parent's own edge
        comes before its children's.
        """
        if self.forest:
            return _rooted(mask, self._neighbours)
        # target: the weight of a join tree, Σ_a (|holders_a ∩ mask| - 1)
        # over the attributes two or more relations hold.
        members = bits_of(mask)
        target = 0
        for bit in members:
            target += self._shared[bit]
        target -= sum(1 for held in self._holders if held & mask)
        # group[bit]: the mask of the tree fragment holding bit;
        # adjacent[bit]: the mask of its tree neighbours.
        group = {bit: bit for bit in members}
        adjacent = dict.fromkeys(members, 0)
        edges = 0
        weight = 0
        last = len(members) - 1
        for pair, pair_weight, a, b in self._pairs:
            if edges == last:
                break
            if pair & mask != pair or group[a] & b:
                continue
            merged = group[a] | group[b]
            for bit in bits_of(merged):
                group[bit] = merged
            adjacent[a] |= b
            adjacent[b] |= a
            edges += 1
            weight += pair_weight
        if edges != last or weight != target:
            return None
        return _rooted(mask, adjacent)


def _rooted(mask: int, adjacent: Dict[int, int]) -> Optional[TreeEdges]:
    """The tree whose edges ``adjacent`` holds inside ``mask``, listed
    breadth-first from the lowest relation as ``(child, parent)`` bits,
    children lowest first, or ``None`` when the search does not reach
    every relation of ``mask``."""
    queue = [mask & -mask]
    seen = queue[0]
    listing = []
    for node in queue:
        fresh = adjacent[node] & mask & ~seen
        seen |= fresh
        while fresh:
            child = fresh & -fresh
            fresh ^= child
            listing.append((child, node))
            queue.append(child)
    if seen != mask:
        return None
    return tuple(listing)
