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
on its own.  The DP is checked against the exhaustive optimizer on
small random databases of the same shapes.

The pinned plans and trees were recorded before the DP and the join-tree
build moved onto the index: the plans ``optimize_dp`` picks on the
paper's examples and on databases where every split of a subset costs
the same, in all four spaces, and the join trees of the connected
acyclic examples.  They catch drift in split order and tie-breaks.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import Database, relation
from repro.errors import OptimizerError
from repro.optimizer.dp import optimize_dp
from repro.optimizer.exhaustive import optimize_exhaustive
from repro.optimizer.spaces import SearchSpace
from repro.relational.attributes import AttributeSet, attrs
from repro.schemegraph.acyclicity import is_alpha_acyclic
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
        base = left + [AttributeSet("x" + a for a in s) for s in right]
    else:
        base = _shape(draw, kind, most)
    out = []
    for index, scheme in enumerate(base):
        if draw(st.booleans()):
            scheme = AttributeSet(list(scheme) + [f"p{index}"])
        out.append(scheme)
    return out


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
            edges = [(members[a], members[b]) for a, b in tree]
            assert JoinTree(subset, edges) == build_join_tree(subset)


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
