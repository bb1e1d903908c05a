"""The subset index against the scheme-level definitions it stands in
for, and the subset DP's plans pinned.

On every subset of random schemes -- chains, stars, random trees,
cycles, cliques, hyperedge chains whose neighbours share two attributes,
``AB, BC, AC, ABC``, unions of two shapes over disjoint attributes, and
single relations, some relations carrying a private attribute -- the
index must list the components :meth:`DatabaseScheme.components` lists,
in the same order.  On a connected subset it must find a join tree
exactly when GYO calls the subset alpha-acyclic (GYO stays the oracle),
and the tree it finds must pass :class:`JoinTree`'s running-intersection
check and equal the tree :func:`build_join_tree` builds for the subset
on its own, its edges listed as the reducer's :func:`bfs_order` lists
them.  The DP is checked against the exhaustive optimizer on
small random databases of the same shapes.

On a scheme whose intersection graph is a forest the index lists each
subset's tree by a breadth-first search instead of Kruskal's search.
Today's Kruskal listing is kept here as a reference, and on random
forest and non-forest schemes every subset's tree must equal it, with
``None`` on the same subsets; the index's forest verdict is checked
against union-find over the sharing pairs, and the binary pipeline's
spanning-tree leaf against a depth-first search over sorted schemes.

The pinned plans and trees were recorded before the DP and the join-tree
build moved onto the index: the plans ``optimize_dp`` picks on the
paper's examples and on databases where every split of a subset costs
the same, in all four spaces, and the join trees of the connected
acyclic examples.  They catch drift in split order and tie-breaks.  The
order of :meth:`SubsetIndex.connected` is pinned the same way, from the
set-based enumeration it replaced.
"""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database, relation
from repro.errors import OptimizerError
from repro.optimizer.dp import optimize_dp
from repro.optimizer.exhaustive import optimize_exhaustive
from repro.optimizer.spaces import SearchSpace
from repro.relational.attributes import AttributeSet, attrs
from repro.schemegraph.acyclicity import is_alpha_acyclic
from repro.schemegraph.index import bits_of
from repro.schemegraph.jointree import JoinTree, build_join_tree
from repro.schemegraph.scheme import DatabaseScheme
from repro.strategy.cost import tau_cost
from repro.workloads import paper
from repro.workloads.generators import (
    WorkloadSpec,
    chain_scheme,
    clique_scheme,
    cycle_scheme,
    generate_database,
    random_tree_scheme,
    star_scheme,
)
from repro.yannakakis.reducer import bfs_order

#: Shape -> the fewest relations it can have.
_SHAPES = {
    "chain": 1,
    "star": 2,
    "tree": 1,
    "cycle": 3,
    "clique": 3,
    "hyperedge": 1,
    "covered_triangle": 4,
}


def _shape(draw, kind, most):
    """A scheme of the given kind with at most ``most`` relations."""
    if kind == "chain":
        return chain_scheme(draw(st.integers(1, most)))
    if kind == "star":
        return star_scheme(draw(st.integers(2, most)))
    if kind == "tree":
        seed = draw(st.integers(0, 2**16))
        return random_tree_scheme(draw(st.integers(1, most)), random.Random(seed))
    if kind == "cycle":
        return cycle_scheme(draw(st.integers(3, most)))
    if kind == "clique":
        return clique_scheme(draw(st.integers(3, min(most, 4))))
    if kind == "hyperedge":
        n = draw(st.integers(1, most))
        return [AttributeSet([f"H{i}", f"H{i + 1}", f"H{i + 2}"]) for i in range(n)]
    return [attrs(s) for s in ("AB", "BC", "AC", "ABC")]


@st.composite
def schemes(draw, most=8):
    """A list of distinct relation schemes of at most ``most`` relations."""
    fits = [kind for kind, fewest in _SHAPES.items() if fewest <= most]
    kind = draw(st.sampled_from(fits + ["union", "single"]))
    if kind == "single":
        base = [attrs("AB")]
    elif kind == "union":
        half = most // 2
        halves = st.sampled_from([k for k in fits if _SHAPES[k] <= half])
        left = _shape(draw, draw(halves), half)
        right = _shape(draw, draw(halves), most - len(left))
        base = _disjoint(left, right)
    else:
        base = _shape(draw, kind, most)
    return _private(draw, base)


def _private(draw, base):
    """``base`` with a private attribute on some relations."""
    return [
        AttributeSet(list(scheme) + [f"p{i}"]) if draw(st.booleans()) else scheme
        for i, scheme in enumerate(base)
    ]


def _disjoint(left, right):
    """Two shapes over disjoint attributes."""
    return left + [AttributeSet("x" + a for a in s) for s in right]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(schemes())
def test_the_index_agrees_with_the_scheme_on_every_subset(drawn):
    scheme = DatabaseScheme(drawn)
    index = scheme.subset_index()
    assert index.schemes == scheme.sorted_schemes()
    for mask in range(1, index.full + 1):
        members = index.members(mask)
        subset = DatabaseScheme(members)
        assert index.mask_of(members) == mask
        expected = [frozenset(c.schemes) for c in subset.components()]
        got = [frozenset(index.members(c)) for c in index.components(mask)]
        assert got == expected
        tree = index.join_tree(mask)
        if len(expected) > 1:
            assert tree is None
            continue
        assert (tree is None) == (not is_alpha_acyclic(subset))
        if tree is not None:
            scheme_of = dict(zip(bits_of(mask), members))
            edges = [(scheme_of[a], scheme_of[b]) for a, b in tree]
            assert JoinTree(subset, edges) == build_join_tree(subset)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(schemes())
def test_join_trees_come_rooted_in_bfs_order(drawn):
    # The Yannakakis sweeps and joins walk the tree's edges as they
    # come: (child, parent) relation bits in the reducer's BFS order
    # from the lowest relation, children lowest bit first.
    index = DatabaseScheme(drawn).subset_index()
    for mask in range(1, index.full + 1):
        tree = index.join_tree(mask)
        if tree is None:
            continue
        adjacency = {node: set() for node in bits_of(mask)}
        for child, parent in tree:
            adjacency[child].add(parent)
            adjacency[parent].add(child)
        root = mask & -mask
        assert [(root, None), *tree] == bfs_order(adjacency, root)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(schemes(most=5), st.integers(0, 2**16))
def test_the_dp_agrees_with_exhaustive_search(drawn, seed):
    db = generate_database(
        drawn, random.Random(seed), WorkloadSpec(size=4, domain=2)
    )
    for space in SearchSpace:
        try:
            brute = optimize_exhaustive(db, space)
        except OptimizerError:
            with pytest.raises(OptimizerError):
                optimize_dp(db, space)
            continue
        dp = optimize_dp(db, space)
        assert dp.cost == brute.cost, space
        assert space.contains(dp.strategy)
        assert tau_cost(dp.strategy) == dp.cost


# -- the forest BFS against the Kruskal listing ----------------------------------


def _kruskal_listing(ordered, mask):
    """The join tree of the subset ``mask`` of ``ordered`` (schemes in
    sorted-scheme order) as the index's Kruskal pass lists it, or
    ``None``: pairs heaviest first, ties by position; acyclic iff the
    tree weighs ``Σ_a (|holders_a| - 1)``; then breadth-first from the
    lowest relation, children in ascending position, as relation
    bits."""
    members = [i for i in range(len(ordered)) if mask >> i & 1]
    group = {i: frozenset([i]) for i in members}
    adjacent = {i: [] for i in members}
    weight = 0
    pairs = sorted(
        (-len(ordered[i] & ordered[j]), i, j)
        for i, j in combinations(members, 2)
        if ordered[i] & ordered[j]
    )
    for negative, i, j in pairs:
        if j in group[i]:
            continue
        merged = group[i] | group[j]
        for k in merged:
            group[k] = merged
        adjacent[i].append(j)
        adjacent[j].append(i)
        weight -= negative
    if len(group[members[0]]) != len(members):
        return None
    attributes = set().union(*(ordered[i] for i in members))
    target = sum(sum(1 for i in members if a in ordered[i]) - 1 for a in attributes)
    if weight != target:
        return None
    queue, seen, listing = [members[0]], {members[0]}, []
    for node in queue:
        for child in sorted(adjacent[node]):
            if child not in seen:
                seen.add(child)
                listing.append((1 << child, 1 << node))
                queue.append(child)
    return tuple(listing)


def _is_forest(ordered):
    """Union-find over the sharing pairs: no pair closes a cycle."""
    root = list(range(len(ordered)))

    def find(i):
        while root[i] != i:
            i = root[i]
        return i

    for i, j in combinations(range(len(ordered)), 2):
        if ordered[i] & ordered[j]:
            a, b = find(i), find(j)
            if a == b:
                return False
            root[a] = b
    return True


@st.composite
def forest_schemes(draw, most=8):
    """Chains, stars, random trees, and unions of two of them."""
    kind = draw(st.sampled_from(["chain", "star", "tree", "union"]))
    if kind != "union":
        return _private(draw, _shape(draw, kind, most))
    half = most // 2
    left = _shape(draw, draw(st.sampled_from(["chain", "star", "tree"])), half)
    right = _shape(draw, draw(st.sampled_from(["chain", "star", "tree"])), most - half)
    return _private(draw, _disjoint(left, right))


@st.composite
def non_forest_schemes(draw, most=8):
    """Cycles, cliques, hyperedge chains of three or more, ``AB, BC, AC,
    ABC``, each alone or beside another shape."""
    kind = draw(st.sampled_from(["cycle", "clique", "hyperedge", "covered_triangle"]))
    if kind == "hyperedge":
        n = draw(st.integers(3, most))
        base = [AttributeSet([f"H{i}", f"H{i + 1}", f"H{i + 2}"]) for i in range(n)]
    else:
        base = _shape(draw, kind, most)
    room = most - len(base)
    if room >= 1 and draw(st.booleans()):
        other = draw(st.sampled_from(["chain", "tree", "hyperedge"]))
        base = _disjoint(base, _shape(draw, other, room))
    return _private(draw, base)


def _check_every_mask(drawn, forest):
    index = DatabaseScheme(drawn).subset_index()
    assert _is_forest(index.schemes) is forest
    assert index.forest is forest
    for mask in range(1, index.full + 1):
        assert index.join_tree(mask) == _kruskal_listing(index.schemes, mask), mask


@settings(max_examples=80, deadline=None, derandomize=True)
@given(forest_schemes())
def test_forest_trees_equal_the_kruskal_listing(drawn):
    _check_every_mask(drawn, forest=True)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(non_forest_schemes())
def test_non_forest_trees_equal_the_kruskal_listing(drawn):
    _check_every_mask(drawn, forest=False)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(schemes())
def test_spanning_leaf_is_the_sorted_scheme_dfs_leaf(drawn):
    # The binary pipeline peels this relation off a connected subset:
    # the last one a depth-first search over the subset's sorted schemes
    # pops, each pushing its unvisited neighbours in sorted order.
    index = DatabaseScheme(drawn).subset_index()
    for mask in index.connected():
        ordered = index.members(mask)
        seen, stack, last = {ordered[0]}, [ordered[0]], ordered[0]
        while stack:
            last = stack.pop()
            for other in ordered:
                if other not in seen and last & other:
                    seen.add(other)
                    stack.append(other)
        assert index.schemes[index.spanning_leaf(mask).bit_length() - 1] == last
        if mask & (mask - 1):
            rest = mask ^ index.bit_of[last]
            assert index.component(rest) == rest


# -- pins recorded before the DP moved onto the index --------------------------


def _ones(*schemes):
    """One all-ones row per relation: every subset joins to one tuple, so
    every split of a subset costs the same and only the tie-break picks."""
    return Database(
        relation(s, [tuple(1 for _ in s)], name=f"R{i + 1}")
        for i, s in enumerate(schemes)
    )


_DATABASES = {
    "example1": paper.example1,
    "example2": paper.example2_c2_only,
    "example3": paper.example3,
    "example4": paper.example4,
    "example5": paper.example5,
    "ties_chain5": lambda: _ones("AB", "BC", "CD", "DE", "EF"),
    "ties_two_chains": lambda: _ones("AB", "BC", "DE", "EF"),
    "ties_star": lambda: _ones("ABC", "AD", "BE", "CF"),
    "ties_triangle": lambda: _ones("AB", "BC", "AC", "CD"),
}

_ALL, _LINEAR = SearchSpace.ALL, SearchSpace.LINEAR
_NOCP, _LINEAR_NOCP = SearchSpace.NOCP, SearchSpace.LINEAR_NOCP

#: (database, space) -> (plan, cost); ``None`` when the space is empty.
_PLANS = {
    ("example1", _ALL): ("((R1 ⋈ R3) ⋈ (R2 ⋈ R4))", 546),
    ("example1", _LINEAR): ("(((R1 ⋈ R2) ⋈ R4) ⋈ R3)", 570),
    ("example1", _NOCP): ("((R1 ⋈ R2) ⋈ (R3 ⋈ R4))", 549),
    ("example1", _LINEAR_NOCP): ("(((R1 ⋈ R2) ⋈ R4) ⋈ R3)", 570),
    ("example2", _ALL): ("((R2' ⋈ R3') ⋈ R1')", 20),
    ("example2", _LINEAR): ("((R2' ⋈ R3') ⋈ R1')", 20),
    ("example2", _NOCP): ("((R1' ⋈ R2') ⋈ R3')", 21),
    ("example2", _LINEAR_NOCP): ("((R1' ⋈ R2') ⋈ R3')", 21),
    ("example3", _ALL): ("((GS ⋈ SC) ⋈ CL)", 7),
    ("example3", _LINEAR): ("((GS ⋈ SC) ⋈ CL)", 7),
    ("example3", _NOCP): ("((GS ⋈ SC) ⋈ CL)", 7),
    ("example3", _LINEAR_NOCP): ("((GS ⋈ SC) ⋈ CL)", 7),
    ("example4", _ALL): ("((CL ⋈ GS) ⋈ SC)", 11),
    ("example4", _LINEAR): ("((CL ⋈ GS) ⋈ SC)", 11),
    ("example4", _NOCP): ("((CL ⋈ SC) ⋈ GS)", 12),
    ("example4", _LINEAR_NOCP): ("((CL ⋈ SC) ⋈ GS)", 12),
    ("example5", _ALL): ("((CI ⋈ ID) ⋈ (MS ⋈ SC))", 11),
    ("example5", _LINEAR): ("(((MS ⋈ SC) ⋈ CI) ⋈ ID)", 12),
    ("example5", _NOCP): ("((CI ⋈ ID) ⋈ (MS ⋈ SC))", 11),
    ("example5", _LINEAR_NOCP): ("(((MS ⋈ SC) ⋈ CI) ⋈ ID)", 12),
    ("ties_chain5", _ALL): ("((((R4 ⋈ R5) ⋈ R3) ⋈ R2) ⋈ R1)", 4),
    ("ties_chain5", _LINEAR): ("((((R4 ⋈ R5) ⋈ R3) ⋈ R2) ⋈ R1)", 4),
    ("ties_chain5", _NOCP): ("((((R4 ⋈ R5) ⋈ R3) ⋈ R2) ⋈ R1)", 4),
    ("ties_chain5", _LINEAR_NOCP): ("((((R4 ⋈ R5) ⋈ R3) ⋈ R2) ⋈ R1)", 4),
    ("ties_two_chains", _ALL): ("(((R3 ⋈ R4) ⋈ R2) ⋈ R1)", 3),
    ("ties_two_chains", _LINEAR): ("(((R3 ⋈ R4) ⋈ R2) ⋈ R1)", 3),
    ("ties_two_chains", _NOCP): ("((R1 ⋈ R2) ⋈ (R3 ⋈ R4))", 3),
    ("ties_two_chains", _LINEAR_NOCP): None,
    ("ties_star", _ALL): ("(((R3 ⋈ R4) ⋈ R2) ⋈ R1)", 3),
    ("ties_star", _LINEAR): ("(((R3 ⋈ R4) ⋈ R2) ⋈ R1)", 3),
    ("ties_star", _NOCP): ("(((R1 ⋈ R2) ⋈ R3) ⋈ R4)", 3),
    ("ties_star", _LINEAR_NOCP): ("(((R1 ⋈ R4) ⋈ R3) ⋈ R2)", 3),
    ("ties_triangle", _ALL): ("(((R2 ⋈ R4) ⋈ R3) ⋈ R1)", 3),
    ("ties_triangle", _LINEAR): ("(((R2 ⋈ R4) ⋈ R3) ⋈ R1)", 3),
    ("ties_triangle", _NOCP): ("(((R2 ⋈ R4) ⋈ R3) ⋈ R1)", 3),
    ("ties_triangle", _LINEAR_NOCP): ("(((R2 ⋈ R4) ⋈ R3) ⋈ R1)", 3),
}


@pytest.mark.parametrize(
    "name,space", list(_PLANS), ids=[f"{n}-{s.value}" for n, s in _PLANS]
)
def test_dp_plans_are_pinned(name, space):
    db = _DATABASES[name]()
    pinned = _PLANS[(name, space)]
    if pinned is None:
        with pytest.raises(OptimizerError):
            optimize_dp(db, space)
        return
    result = optimize_dp(db, space)
    assert (result.strategy.describe(), result.cost) == pinned


_COURSE_TREE = [
    (("course", "laboratory"), ("course", "student")),
    (("course", "student"), ("game", "student")),
]

#: The connected acyclic examples' join trees, edges as sorted name pairs.
_TREES = {
    "example3": _COURSE_TREE,
    "example4": _COURSE_TREE,
    "example5": [
        (("course", "instructor"), ("course", "student")),
        (("course", "instructor"), ("department", "instructor")),
        (("course", "student"), ("major", "student")),
    ],
}


@pytest.mark.parametrize("name", list(_TREES))
def test_join_trees_are_pinned(name):
    tree = build_join_tree(_DATABASES[name]().scheme)
    assert sorted((a.sorted(), b.sorted()) for a, b in tree.edges) == _TREES[name]


#: ``connected()`` as member lists, recorded from 2.3.0's set-based
#: ``DatabaseScheme.connected_subsets()``.  The condition checkers visit
#: subsets in this order, so drift here reorders their witnesses.
_CONNECTED = {
    "chain4": (
        chain_scheme(4),
        ["AB", "AB BC", "AB BC CD", "AB BC CD DE", "BC", "BC CD", "BC CD DE",
         "CD", "CD DE", "DE"],
    ),
    "star4": (
        star_scheme(4),
        ["ABC", "ABC AE", "ABC AE BF", "ABC AE BF CG", "ABC AE CG", "ABC BF",
         "ABC BF CG", "ABC CG", "AE", "BF", "CG"],
    ),
    "cycle4": (
        cycle_scheme(4),
        ["AB", "AB AD", "AB AD BC", "AB AD BC CD", "AB AD CD", "AB BC",
         "AB BC CD", "AD", "AD CD", "AD BC CD", "BC", "BC CD", "CD"],
    ),
    "clique4": (
        clique_scheme(4),
        ["ABC", "ABC ADE", "ABC ADE BDF", "ABC ADE BDF CEF", "ABC ADE CEF",
         "ABC BDF", "ABC BDF CEF", "ABC CEF", "ADE", "ADE BDF", "ADE BDF CEF",
         "ADE CEF", "BDF", "BDF CEF", "CEF"],
    ),
    "covered_triangle": (
        [attrs(s) for s in ("AB", "BC", "AC", "ABC")],
        ["AB", "AB ABC", "AB ABC AC", "AB ABC AC BC", "AB ABC BC", "AB AC",
         "AB AC BC", "AB BC", "ABC", "ABC AC", "ABC AC BC", "ABC BC", "AC",
         "AC BC", "BC"],
    ),
    "two_chains": (
        [attrs(s) for s in ("AB", "BC", "CD", "XY", "YZ")],
        ["AB", "AB BC", "AB BC CD", "BC", "BC CD", "CD", "XY", "XY YZ", "YZ"],
    ),
}


@pytest.mark.parametrize("name", list(_CONNECTED))
def test_connected_subsets_are_pinned(name):
    drawn, expected = _CONNECTED[name]
    scheme = DatabaseScheme(drawn)
    index = scheme.subset_index()

    def names(schemes):
        return " ".join("".join(s.sorted()) for s in schemes)

    assert [names(index.members(m)) for m in index.connected()] == expected
    assert [names(subset) for subset in scheme.connected_subsets()] == expected
