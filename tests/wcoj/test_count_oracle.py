"""Generic Join's counting mode, and ``tau_of`` on every engine, against
the nested-loop oracle on random cyclic schemes and all their connected
subsets.

The schemes are cycles and cliques, some relations carry private
attributes, and the subsets add more (a triangle inside a 4-clique
keeps one private attribute per relation).  Relations may be empty or
hold a single row, and values come from a tiny domain so that the
weighted tries' projection keys repeat.
"""

from hypothesis import given, settings, strategies as st

from repro.database import ENGINES, Database
from repro.relational.attributes import AttributeSet
from repro.relational.relation import Relation
from repro.wcoj import generic_count
from repro.workloads.generators import clique_scheme, cycle_scheme
from tests import oracle

_SHAPES = {"cycle": (cycle_scheme, 5), "clique": (clique_scheme, 4)}

#: Rows drawn per relation (before duplicates collapse): empty and
#: single-row relations, and enough rows that most joins are nonempty.
_SIZES = (8, 4, 12, 8, 1, 0)


@st.composite
def cyclic_databases(draw):
    """``(relations, operands, order)``: a random cyclic database, its
    oracle operands by scheme, and an expansion order over all of its
    attributes (``None`` for the kernel's own choice)."""
    shape = draw(st.sampled_from(sorted(_SHAPES)))
    make_scheme, largest = _SHAPES[shape]
    n = draw(st.integers(3, largest))
    domain = draw(st.integers(1, 3))
    relations, operands = [], {}
    for index, base in enumerate(make_scheme(n)):
        private = [f"p{index}{k}" for k in range(draw(st.integers(0, 1)))]
        scheme = AttributeSet(list(base) + private)
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
    attributes = sorted(set().union(*operands))
    order = draw(st.none() | st.permutations(attributes))
    return relations, operands, order


def _oracle_tau(operands, subset):
    return len(oracle.join_all(operands[s] for s in subset.sorted_schemes())[1])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cyclic_databases())
def test_generic_count_matches_the_oracle(case):
    relations, operands, order = case
    db = Database(relations)
    for subset in db.connected_subsets():
        schemes = subset.sorted_schemes()
        tables = [db.state_for(s)._table() for s in schemes]
        attributes = set().union(*schemes)
        restricted = (
            None if order is None else tuple(a for a in order if a in attributes)
        )
        assert generic_count(tables, order=restricted) == _oracle_tau(
            operands, subset
        )


@settings(max_examples=30, deadline=None, derandomize=True)
@given(cyclic_databases())
def test_tau_of_matches_the_oracle_on_every_engine(case):
    relations, operands, _ = case
    subsets = Database(relations).connected_subsets()
    expected = [_oracle_tau(operands, subset) for subset in subsets]
    for engine in ENGINES:
        # A fresh database per subset: no count is served from a cache
        # another subset filled.
        got = [Database(relations, engine=engine).tau_of(s) for s in subsets]
        assert got == expected, engine


def test_tables_sharing_nothing_multiply_in():
    # Database only counts connected subsets; called directly, a table
    # that shares no attribute is a constant factor, and a lone table or
    # tables sharing nothing at all count as the product of their sizes.
    operands = {
        "AB": (["A", "B"], [{"A": 1, "B": 1}, {"A": 2, "B": 1}]),
        "BC": (["B", "C"], [{"B": 1, "C": 5}, {"B": 1, "C": 6}, {"B": 2, "C": 5}]),
        "DE": (["D", "E"], [{"D": 0, "E": 0}, {"D": 0, "E": 1}]),
    }
    tables = {
        name: Relation.from_dicts(AttributeSet(names), rows)._table()
        for name, (names, rows) in operands.items()
    }
    for names in (["AB", "BC", "DE"], ["AB", "DE"], ["BC"]):
        expected = len(oracle.join_all(operands[n] for n in names)[1])
        assert generic_count([tables[n] for n in names]) == expected
