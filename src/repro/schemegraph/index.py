"""The subset index of a database scheme: relations as bits, subsets as ints.

The subset DP, the tau-only path and the Yannakakis kernels all ask the
same two questions about subsets of one database scheme, hundreds of
times per query: what are the subset's components, and what is its join
tree, if it has one?  :class:`SubsetIndex` answers both on int bitmasks.
Relation ``i`` of the scheme in sorted-scheme order is bit ``1 << i``,
and a subset is the OR of its relations' bits.

The index is built once per scheme
(:meth:`~repro.schemegraph.scheme.DatabaseScheme.subset_index`) and
holds four things: each relation's neighbour mask in the intersection
graph, the relation pairs that share attributes in Kruskal order, a
holder mask for every attribute held by two or more relations, and the
relation <-> bit map.

Join trees come from Maier's characterization of alpha-acyclicity: a
connected scheme is alpha-acyclic iff a maximum-weight spanning tree of
its intersection graph, an edge weighing the number of attributes its
ends share, is a join tree.  Any spanning tree weighs at most
``Σ_a (|holders of a| - 1)``, because the edges whose ends both hold
``a`` form a forest over the holders of ``a``; it reaches that sum
exactly when every attribute's holders induce a subtree, which is the
running intersection property.  One Kruskal pass therefore yields both
the tree and the acyclicity verdict.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterable, List, Optional, Tuple

from repro.relational.attributes import AttributeSet

__all__ = ["SubsetIndex", "TreeEdges", "bits_of"]

#: A join tree as edges between positions of a subset's members.
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

    __slots__ = ("schemes", "bit_of", "full", "_neighbours", "_pairs", "_holders", "_shared")

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

    def components(self, mask: int) -> List[int]:
        """The components of the subset ``mask``, ordered by their lowest
        relation -- the order of
        :meth:`~repro.schemegraph.scheme.DatabaseScheme.components`."""
        neighbours = self._neighbours
        out = []
        while mask:
            reached = frontier = mask & -mask
            while frontier:
                bit = frontier & -frontier
                grown = neighbours[bit] & mask & ~reached
                reached |= grown
                frontier = (frontier ^ bit) | grown
            out.append(reached)
            mask ^= reached
        return out

    def join_tree(self, mask: int) -> Optional[TreeEdges]:
        """A join tree of the subset ``mask``, or ``None`` when it has none.

        The edges join positions in :meth:`members`.  Kruskal takes the
        pairs inside ``mask`` heaviest first; the subset is alpha-acyclic
        iff the tree weighs ``Σ_a (|holders_a ∩ mask| - 1)`` over the
        attributes it holds (module docstring).  A cyclic or unconnected
        subset returns ``None``.
        """
        # target: the weight of a join tree, Σ_a (|holders_a ∩ mask| - 1)
        # over the attributes two or more relations hold.
        position: Dict[int, int] = {}
        target = 0
        for bit in bits_of(mask):
            position[bit] = len(position)
            target += self._shared[bit]
        target -= sum(1 for held in self._holders if held & mask)
        # group[bit]: the mask of the tree fragment holding bit.
        group = {bit: bit for bit in position}
        edges = []
        weight = 0
        last = len(position) - 1
        for pair, pair_weight, a, b in self._pairs:
            if len(edges) == last:
                break
            if pair & mask != pair or group[a] & b:
                continue
            merged = group[a] | group[b]
            for bit in bits_of(merged):
                group[bit] = merged
            edges.append((position[a], position[b]))
            weight += pair_weight
        if len(edges) != last or weight != target:
            return None
        return tuple(edges)
