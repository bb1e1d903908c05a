"""The Yannakakis counter, and ``tau_of`` on every engine, against the
nested-loop oracle on random acyclic schemes and all their connected
subsets.

The schemes are chains, stars, random trees, and hyperedge chains whose
neighbours share two attributes (``ABC-BCD-CDE``), so composite keys
reach the leaf ``Counter`` and the inner-node group-by; some relations
carry private attributes.  One more scheme, ``AB, BC, AC, ABC``, is
alpha-acyclic while its proper subset ``{AB, BC, AC}`` is a cycle, which
the counter must never be asked to count.  Relations may be empty or
hold a single row, and values come from domains of one to three values,
so keys repeat and inner weights exceed 1.
"""

import importlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.database import ENGINES, Database
from repro.errors import AcyclicityError
from repro.relational.attributes import AttributeSet, attrs
from repro.relational.relation import Relation
from repro.schemegraph.acyclicity import is_alpha_acyclic
from repro.schemegraph.scheme import DatabaseScheme
from repro.workloads.generators import chain_scheme, random_tree_scheme, star_scheme
from repro.yannakakis import yannakakis_count
from tests import oracle

#: The alpha-acyclic scheme with a cyclic proper subset.
_COVERED_TRIANGLE = [attrs(s) for s in ("AB", "BC", "AC", "ABC")]

#: Rows drawn per relation (before duplicates collapse).
_SIZES = (0, 1, 4, 8, 12)


def _hyperedge_chain(n):
    """``n`` relations over three attributes each; neighbours share two."""
    return [AttributeSet([f"H{i}", f"H{i + 1}", f"H{i + 2}"]) for i in range(n)]


@st.composite
def acyclic_databases(draw):
    """``(relations, operands)``: a random acyclic database and its
    oracle operands by scheme."""
    shape = draw(
        st.sampled_from(["chain", "star", "tree", "hyperedge", "covered_triangle"])
    )
    if shape == "chain":
        base = chain_scheme(draw(st.integers(2, 5)))
    elif shape == "star":
        base = star_scheme(draw(st.integers(2, 5)))
    elif shape == "tree":
        seed = draw(st.integers(0, 2**16))
        base = random_tree_scheme(draw(st.integers(2, 6)), random.Random(seed))
    elif shape == "hyperedge":
        base = _hyperedge_chain(draw(st.integers(2, 4)))
    else:
        base = _COVERED_TRIANGLE
    domain = draw(st.integers(1, 3))
    relations, operands = [], {}
    for index, scheme in enumerate(base):
        if shape != "covered_triangle" and draw(st.booleans()):
            scheme = AttributeSet(list(scheme) + [f"p{index}"])
        names = scheme.sorted()
        size = draw(st.sampled_from(_SIZES))
        rows = draw(
            st.lists(
                st.tuples(*[st.integers(0, domain - 1) for _ in names]),
                min_size=size,
                max_size=size,
            )
        )
        dicts = [dict(zip(names, row)) for row in rows]
        relations.append(Relation.from_dicts(scheme, dicts))
        operands[scheme] = (names, dicts)
    return relations, operands


def _oracle_tau(operands, subset):
    return len(oracle.join_all(operands[s] for s in subset.sorted_schemes())[1])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(acyclic_databases())
def test_yannakakis_count_matches_the_oracle(case):
    relations, operands = case
    db = Database(relations)
    for subset in db.connected_subsets():
        if not is_alpha_acyclic(subset):
            continue
        tables = [db.state_for(s)._table() for s in subset.sorted_schemes()]
        expected = _oracle_tau(operands, subset)
        index = db.scheme.subset_index()
        tree = index.join_tree(index.mask_of(subset))
        assert yannakakis_count(tables) == expected
        assert yannakakis_count(tables, tree=tree) == expected


@settings(max_examples=25, deadline=None, derandomize=True)
@given(acyclic_databases())
def test_tau_of_matches_the_oracle_on_every_engine(case):
    relations, operands = case
    subsets = Database(relations).connected_subsets()
    expected = [_oracle_tau(operands, subset) for subset in subsets]
    for engine in ENGINES:
        # A fresh database per subset: no count is served from a cache
        # another subset filled.
        got = [Database(relations, engine=engine).tau_of(s) for s in subsets]
        assert got == expected, engine


@settings(max_examples=60, deadline=None, derandomize=True)
@given(acyclic_databases())
def test_one_database_shares_messages_across_subsets(case):
    # The test above counts each subset on a fresh database; here one
    # database counts every connected acyclic subset, so later counts
    # read the messages and root weights earlier ones filed.  The order
    # matters: in ascending mask order the smaller subtrees, and the
    # subset without a root's last child, come first; in descending
    # order the largest subset files messages its subsets reuse; a
    # shuffle mixes the two.
    relations, operands = case
    index = Database(relations).scheme.subset_index()
    masks = [mask for mask in index.connected() if index.join_tree(mask) is not None]
    expected = {
        mask: _oracle_tau(operands, DatabaseScheme(index.members(mask)))
        for mask in masks
    }
    shuffled = sorted(masks)
    random.Random(len(masks)).shuffle(shuffled)
    for engine in (None,) + ENGINES:
        for order in (sorted(masks), sorted(masks, reverse=True), shuffled):
            db = Database(relations, engine=engine)
            got = {mask: db.tau_of_mask(mask) for mask in order}
            assert got == expected, engine


def test_copies_start_with_an_empty_message_memo():
    db = Database(
        Relation.from_dicts(scheme, [dict.fromkeys(scheme.sorted(), 0)])
        for scheme in chain_scheme(4)
    )
    assert db.tau_of(None) == 1
    assert db._messages
    assert db.with_engine("yannakakis")._messages == {}
    assert db.restrict(chain_scheme(3))._messages == {}


def _covered_triangle():
    dicts = {
        "AB": [{"A": a, "B": b} for a in range(3) for b in range(3) if a != b],
        "BC": [{"B": b, "C": c} for b in range(3) for c in range(3) if b != c],
        "AC": [{"A": a, "C": c} for a in range(3) for c in range(3) if a != c],
        "ABC": [{"A": 0, "B": 1, "C": 2}, {"A": 1, "B": 1, "C": 0}],
    }
    relations = [Relation.from_dicts(attrs(name), rows) for name, rows in dicts.items()]
    operands = {attrs(name): (sorted(name), rows) for name, rows in dicts.items()}
    return relations, operands


def test_the_counter_rejects_a_cyclic_scheme():
    relations, _ = _covered_triangle()
    tables = [rel._table() for rel in relations if len(rel.scheme) == 2]
    with pytest.raises(AcyclicityError):
        yannakakis_count(tables)


@pytest.mark.parametrize("engine", ENGINES)
def test_a_cyclic_subset_is_counted_elsewhere(engine, monkeypatch):
    relations, operands = _covered_triangle()
    counted = []

    database_module = importlib.import_module("repro.database")
    count = database_module._count_subset

    def spy(tables, tree, mask, memo):
        counted.append(frozenset(index.members(mask)))
        return count(tables, tree, mask, memo)

    monkeypatch.setattr(database_module, "_count_subset", spy)
    db = Database(relations, engine=engine)
    index = db.scheme.subset_index()
    cycle = frozenset(_COVERED_TRIANGLE[:3])
    for subset in db.connected_subsets():
        assert db.tau_of(subset) == _oracle_tau(operands, subset)
    assert cycle not in counted
    # The whole scheme is acyclic (ABC covers the triangle), so the
    # counter does take it.
    assert frozenset(_COVERED_TRIANGLE) in counted
