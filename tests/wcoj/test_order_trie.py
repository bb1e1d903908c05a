"""The expansion-order heuristic and the per-relation tries."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.relational.attributes import AttributeSet
from repro.relational.columnar import ColumnarTable
from repro.relational.relation import Relation
from repro.wcoj import build_trie, choose_order, generic_join

_ATTRS = "ABCDEF"


class TestChooseOrder:
    def test_triangle_breaks_frequency_ties_lexicographically(self):
        order = choose_order([AttributeSet(s) for s in ("AB", "BC", "AC")])
        assert order == ("A", "B", "C")

    def test_chain_starts_at_a_shared_attribute(self):
        order = choose_order([AttributeSet(s) for s in ("AB", "BC", "CD")])
        assert order == ("B", "C", "A", "D")

    def test_disconnected_schemes_are_covered_component_by_component(self):
        order = choose_order([AttributeSet("AB"), AttributeSet("CD")])
        assert order == ("A", "B", "C", "D")

    def test_deterministic(self):
        schemes = [AttributeSet(s) for s in ("ABC", "BCD", "CDE", "AE")]
        assert choose_order(schemes) == choose_order(schemes)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_covers_every_attribute_exactly_once(self, data):
        count = data.draw(st.integers(1, 4))
        schemes = []
        for _ in range(count):
            size = data.draw(st.integers(1, 3))
            schemes.append(AttributeSet(data.draw(st.permutations(_ATTRS))[:size]))
        order = choose_order(schemes)
        attributes = set().union(*schemes)
        assert sorted(order) == sorted(attributes)
        assert len(order) == len(attributes)


class TestBuildTrie:
    def _table(self):
        rel = Relation.from_tuples(
            AttributeSet("AB"), [(1, 10), (1, 20), (2, 10)], order=("A", "B")
        )
        return rel._table()

    def test_nested_shape_shares_prefixes(self):
        table = self._table()
        trie = build_trie(table, ("A", "B"))
        # Two distinct A ids, the first with two B children.
        assert len(trie) == 2
        assert sorted(len(child) for child in trie.values()) == [1, 2]
        leaves = [leaf for child in trie.values() for leaf in child.values()]
        assert all(leaf is True for leaf in leaves)

    def test_path_order_transposes_the_levels(self):
        table = self._table()
        forward = build_trie(table, ("A", "B"))
        backward = build_trie(table, ("B", "A"))
        assert len(backward) == 2  # two distinct B ids
        assert sum(len(c) for c in forward.values()) == len(table)
        assert sum(len(c) for c in backward.values()) == len(table)

    def test_single_attribute_is_a_membership_level(self):
        rel = Relation.from_tuples(AttributeSet("A"), [(1,), (2,)], order=("A",))
        trie = build_trie(rel._table(), ("A",))
        assert set(trie.values()) == {True}
        assert len(trie) == 2

    def test_empty_table_gives_an_empty_trie(self):
        rel = Relation.from_tuples(AttributeSet("AB"), [], order=("A", "B"))
        assert build_trie(rel._table(), ("A", "B")) == {}


def _reference_trie(table, path, weighted):
    """The plain nested-dict trie: one ``setdefault`` walk per row."""
    if not path:
        return len(table) if weighted else {}
    positions = [table.order.index(attr) for attr in path]
    root = {}
    for row in table.row_list():
        keys = [row[p] for p in positions]
        node = root
        for key in keys[:-1]:
            node = node.setdefault(key, {})
        node[keys[-1]] = node.get(keys[-1], 0) + 1 if weighted else True
    return root


class TestBuildTrieAgainstAReference:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), weighted=st.booleans())
    def test_matches_the_reference(self, data, weighted):
        arity = data.draw(st.integers(1, 4))
        order = tuple(_ATTRS[:arity])
        rows = data.draw(
            st.lists(st.tuples(*[st.integers(0, 3)] * arity), max_size=40)
        )
        table = ColumnarTable(order, rows)
        depth = data.draw(st.integers(0, arity))
        path = tuple(data.draw(st.permutations(order))[:depth])
        assert build_trie(table, path, weighted) == _reference_trie(
            table, path, weighted
        )


class TestGenericJoinOrderContract:
    def _tables(self):
        return [
            Relation.from_tuples(
                AttributeSet("AB"), [(1, 1), (2, 1)], order=("A", "B")
            )._table(),
            Relation.from_tuples(
                AttributeSet("BC"), [(1, 5), (1, 6)], order=("B", "C")
            )._table(),
        ]

    def test_explicit_order_matches_the_default(self):
        tables = self._tables()
        default = generic_join(tables)
        explicit = generic_join(tables, order=("C", "A", "B"))
        assert default.order == explicit.order
        assert default.rows == explicit.rows

    def test_incomplete_order_rejected(self):
        with pytest.raises(ValueError):
            generic_join(self._tables(), order=("A", "B"))

    def test_foreign_attribute_rejected(self):
        with pytest.raises(ValueError):
            generic_join(self._tables(), order=("A", "B", "C", "D"))

    def test_no_tables_rejected(self):
        with pytest.raises(ValueError):
            generic_join([])
